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
//! * probes — [`AgentFleet::due_probes`] (or, for a round-based driver,
//!   [`AgentFleet::entries`]) out, network outcomes back in through
//!   [`AgentFleet::record_outcome`],
//! * upload opportunities ([`AgentFleet::upload_due`] /
//!   [`AgentFleet::begin_upload`] / [`AgentFleet::on_upload_result`]).
//!
//! Layout: state is flattened into parallel arenas so that a 100k-agent
//! simulation sweeps memory linearly instead of chasing one heap per
//! agent (the same move `InlineVec` made for `Path.hops`):
//!
//! * all pinglist entries live in one `Vec<PinglistEntry>` arena, each
//!   agent owning a contiguous [`Segment`] of it;
//! * per-entry next-due times live in a parallel `Vec<SimTime>` arena, so
//!   a due-scan is a cache-linear sweep of one agent's segment;
//! * per-agent scalars (cached next wake, ephemeral port cursor,
//!   generation, lifetime ledgers) are plain `Vec`s indexed by the fleet
//!   index.
//!
//! The sweep emits probes in `(due time, entry index)` order — the pop
//! order of [`crate::scheduler::ProbeScheduler`]'s binary heap, which is
//! kept as the independent reference the differential test below checks
//! wake times, due order and port rotation against. The sharded
//! orchestrator gives each shard its own `AgentFleet` over its podset's
//! servers, so fleets are mutated thread-locally and need no locks.

use crate::buffer::ResultBuffer;
use crate::config::AgentConfig;
use crate::guard::{GuardDecision, SafetyGuard};
use crate::scheduler::{phase_of, DueProbe, EPHEMERAL_LO};
use pingmesh_topology::Topology;
use pingmesh_types::{
    AgentCounters, CounterSnapshot, Pinglist, PinglistEntry, ProbeOutcome, ProbeRecord, ServerId,
    SimTime,
};
use std::sync::{Arc, OnceLock};

/// Fleet-wide agent metrics. Every agent of every fleet shares these
/// handles, so they are resolved once; each touch is an atomic add.
struct AgentMetrics {
    probes_sent: Arc<pingmesh_obs::Counter>,
    guard_trips: Arc<pingmesh_obs::Counter>,
    sanitized: Arc<pingmesh_obs::Counter>,
    uploads_started: Arc<pingmesh_obs::Counter>,
    upload_retries: Arc<pingmesh_obs::Counter>,
    records_discarded: Arc<pingmesh_obs::Counter>,
    upload_batch_size: Arc<pingmesh_obs::Histogram>,
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

/// "No wake pending" sentinel in the `next_wake` arena (scans stay
/// branch-free: the min of an empty segment is simply the sentinel).
const NEVER: SimTime = SimTime(u64::MAX);

/// One agent's slice of the entry/due arenas.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    start: u32,
    len: u32,
    cap: u32,
}

/// The flattened agent fleet. Every per-agent operation takes the agent's
/// fleet index (assigned by [`AgentFleet::push_server`], dense from 0).
pub struct AgentFleet {
    topo: Arc<Topology>,
    config: AgentConfig,
    servers: Vec<ServerId>,
    // --- hot state: arenas + per-agent scalars ---
    segs: Vec<Segment>,
    entries: Vec<PinglistEntry>,
    due: Vec<SimTime>,
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
    discarded_seen: Vec<u64>,
    // Recycled wake-path scratch (calls within a shard are sequential, so
    // one per fleet suffices): due picks and the output buffer.
    picks_scratch: Vec<(SimTime, u32)>,
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
            due: Vec::new(),
            next_wake: Vec::new(),
            next_port: Vec::new(),
            generation: Vec::new(),
            guards: Vec::new(),
            buffers: Vec::new(),
            counters: Vec::new(),
            sanitized_entries: Vec::new(),
            probes_observed: Vec::new(),
            unresolved_probes: Vec::new(),
            discarded_seen: Vec::new(),
            picks_scratch: Vec::new(),
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
        self.discarded_seen.push(0);
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

    /// Active pinglist generation of agent `idx` (0 = none yet).
    pub fn generation(&self, idx: usize) -> u64 {
        self.generation[idx]
    }

    /// Whether agent `idx` is fail-closed (not probing).
    pub fn is_stopped(&self, idx: usize) -> bool {
        self.guards[idx].is_stopped()
    }

    /// Number of peers agent `idx` currently schedules.
    pub fn peer_count(&self, idx: usize) -> usize {
        self.segs[idx].len as usize
    }

    /// Entries the guard had to clamp over agent `idx`'s lifetime.
    pub fn sanitized_entries(&self, idx: usize) -> u64 {
        self.sanitized_entries[idx]
    }

    /// Agent `idx`'s installed (already sanitized) pinglist entries, for
    /// a driver that probes in rounds instead of by [`Self::due_probes`]
    /// cadence. Empty while fail-closed: stopping clears the schedule.
    pub fn entries(&self, idx: usize) -> &[PinglistEntry] {
        let seg = self.segs[idx];
        &self.entries[seg.start as usize..][..seg.len as usize]
    }

    fn note_guard_trip(&self, idx: usize, reason: &'static str, now: SimTime) {
        metrics().guard_trips.inc();
        pingmesh_obs::emit_sim!(now; Warn, "agent.guard", "guard_trip",
            "server" => self.servers[idx].0 as u64, "reason" => reason);
    }

    /// Installs a pinglist into agent `idx`'s arena segment: in place when
    /// the segment has capacity, else at the arena tail (the old slice is
    /// abandoned — reinstalls are rare, one per pinglist generation).
    fn install(&mut self, idx: usize, pl: &Pinglist, now: SimTime) {
        let server = self.servers[idx];
        let n = pl.entries.len();
        let seg = &mut self.segs[idx];
        let grow = n as u32 > seg.cap;
        if grow {
            seg.start = self.entries.len() as u32;
            seg.cap = n as u32;
            self.entries.reserve(n);
            self.due.reserve(n);
        }
        seg.len = n as u32;
        let start = seg.start as usize;
        let mut min_due = NEVER;
        for (i, e) in pl.entries.iter().enumerate() {
            let phase = phase_of(server, i, e.interval.as_micros());
            let due = now + pingmesh_types::SimDuration(phase);
            if grow {
                self.entries.push(*e);
                self.due.push(due);
            } else {
                self.entries[start + i] = *e;
                self.due[start + i] = due;
            }
            min_due = min_due.min(due);
        }
        self.next_wake[idx] = min_due;
    }

    fn clear_schedule(&mut self, idx: usize) {
        self.segs[idx].len = 0;
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

    /// Probes of agent `idx` due at `now`: a linear sweep of the agent's
    /// due segment, emitted in `(due time, entry index)` order (the
    /// reference heap's pop order, so port assignment is reproducible).
    /// Hand the buffer back via [`AgentFleet::recycle_due`].
    pub fn due_probes(&mut self, idx: usize, now: SimTime) -> Vec<DueProbe> {
        let mut out = std::mem::take(&mut self.due_scratch);
        out.clear();
        if self.guards[idx].is_stopped() {
            return out;
        }
        let seg = self.segs[idx];
        let (start, len) = (seg.start as usize, seg.len as usize);
        self.picks_scratch.clear();
        for i in 0..len {
            let t = self.due[start + i];
            if t <= now {
                self.picks_scratch.push((t, i as u32));
            }
        }
        self.picks_scratch.sort_unstable();
        for &(_, i) in self.picks_scratch.iter() {
            let i = i as usize;
            let entry = self.entries[start + i];
            let p = self.next_port[idx];
            self.next_port[idx] = if p == u16::MAX { EPHEMERAL_LO } else { p + 1 };
            self.due[start + i] = now + entry.interval;
            out.push(DueProbe {
                entry_index: i,
                entry,
                src_port: p,
            });
        }
        if !self.picks_scratch.is_empty() {
            let mut min_due = NEVER;
            for i in 0..len {
                min_due = min_due.min(self.due[start + i]);
            }
            self.next_wake[idx] = min_due;
        }
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
        metrics().probes_sent.inc();
        self.probes_observed[idx] += 1;
        let Some(dst) = dst else {
            self.unresolved_probes[idx] += 1;
            return;
        };
        let src = self.servers[idx];
        let s = self.topo.server(src);
        let d = self.topo.server(dst);
        let rec = ProbeRecord {
            ts: now,
            src,
            dst,
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind: due.entry.kind,
            qos: due.entry.qos,
            src_port: due.src_port,
            dst_port: due.entry.port,
            outcome,
        };
        pingmesh_obs::trace::on_probe(&rec);
        self.buffers[idx].push(rec);
    }

    /// Whether agent `idx` should start an upload now.
    pub fn upload_due(&self, idx: usize, now: SimTime) -> bool {
        self.buffers[idx].upload_due(now)
    }

    /// Starts an upload for agent `idx`; returns the batch.
    pub fn begin_upload(&mut self, idx: usize) -> Option<Vec<ProbeRecord>> {
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
        let newly = self.buffers[idx]
            .discarded()
            .saturating_sub(self.discarded_seen[idx]);
        if newly > 0 {
            self.discarded_seen[idx] = self.buffers[idx].discarded();
            metrics().records_discarded.add(newly);
        }
        retry
    }

    /// Ends agent `idx`'s upload cycle by freeing the batch (DESIGN.md §3).
    pub fn recycle_batch(&mut self, _idx: usize, batch: Vec<ProbeRecord>) {
        drop(batch);
    }

    /// Marks bytes as uploaded for agent `idx`.
    pub fn note_uploaded(&mut self, idx: usize, bytes: u64) {
        self.counters[idx].bytes_uploaded += bytes;
    }

    /// Cumulative records agent `idx` discarded over its lifetime.
    pub fn discarded_total(&self, idx: usize) -> u64 {
        self.buffers[idx].discarded()
    }

    /// Lifetime probe outcomes fed back into agent `idx`.
    pub fn probes_observed(&self, idx: usize) -> u64 {
        self.probes_observed[idx]
    }

    /// Lifetime unresolved (recordless) probes of agent `idx`.
    pub fn unresolved_probes(&self, idx: usize) -> u64 {
        self.unresolved_probes[idx]
    }

    /// Records agent `idx` currently buffers.
    pub fn buffered_records(&self, idx: usize) -> u64 {
        self.buffers[idx].len() as u64
    }

    /// Whether agent `idx` has an upload batch in flight.
    pub fn has_pending_upload(&self, idx: usize) -> bool {
        self.buffers[idx].has_pending()
    }

    /// Live counters of agent `idx`.
    pub fn counters(&self, idx: usize) -> &AgentCounters {
        &self.counters[idx]
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
        self.fleet.generation(self.idx)
    }

    /// Whether the agent is fail-closed (not probing).
    pub fn is_stopped(&self) -> bool {
        self.fleet.is_stopped(self.idx)
    }

    /// Number of peers currently scheduled.
    pub fn peer_count(&self) -> usize {
        self.fleet.peer_count(self.idx)
    }

    /// Entries the guard had to clamp over this agent's lifetime.
    pub fn sanitized_entries(&self) -> u64 {
        self.fleet.sanitized_entries(self.idx)
    }

    /// When the agent next needs to act.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.fleet.next_wakeup(self.idx)
    }

    /// Lifetime probe outcomes fed back.
    pub fn probes_observed(&self) -> u64 {
        self.fleet.probes_observed(self.idx)
    }

    /// Lifetime unresolved (recordless) probes.
    pub fn unresolved_probes(&self) -> u64 {
        self.fleet.unresolved_probes(self.idx)
    }

    /// Records currently buffered.
    pub fn buffered_records(&self) -> u64 {
        self.fleet.buffered_records(self.idx)
    }

    /// Whether an upload batch is in flight.
    pub fn has_pending_upload(&self) -> bool {
        self.fleet.has_pending_upload(self.idx)
    }

    /// Cumulative records discarded.
    pub fn discarded_total(&self) -> u64 {
        self.fleet.discarded_total(self.idx)
    }

    /// Live counters.
    pub fn counters(&self) -> &AgentCounters {
        self.fleet.counters(self.idx)
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
    use pingmesh_types::{PingTarget, ProbeKind, QosClass, SimDuration};
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

    /// The load-bearing test: the arena sweep and the reference binary
    /// heap are two different algorithms, and must agree step for step on
    /// wake times, due order and port rotation — across same-generation
    /// re-polls, in-place shrinks and relocating grows.
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
            assert_eq!(fleet.generation(idx), heap_generation);
            assert_eq!(fleet.peer_count(idx), heap.peer_count());

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

    #[test]
    fn pinglist_install_and_probing() {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let idx = fleet.push_server(ServerId(0));
        assert_eq!(fleet.peer_count(idx), 0);
        assert!(fleet.entries(idx).is_empty());
        fleet.on_controller_poll(
            idx,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 1, 1)),
            SimTime::ZERO,
        );
        assert_eq!(fleet.peer_count(idx), 1);
        assert_eq!(fleet.generation(idx), 1);
        assert_eq!(fleet.entries(idx), &pinglist(ServerId(0), 1, 1).entries[..]);
        probe_once(&mut fleet, idx, Some(ServerId(1)), OK);
        assert_eq!(fleet.counters(idx).probes_sent, 1);
        assert_eq!(fleet.counters(idx).probes_succeeded, 1);
        assert_eq!(fleet.probes_observed(idx), 1);
        assert_eq!(fleet.buffered_records(idx), 1);
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
        assert_eq!(fleet.generation(idx), 2);
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
            assert_eq!(fleet.peer_count(idx), 3);
            for k in 1..=polls_to_stop {
                assert!(!fleet.is_stopped(idx));
                assert_eq!(
                    fleet.peer_count(idx),
                    3,
                    "stale-list grace below the threshold"
                );
                fleet.on_controller_poll(idx, stop.clone(), SimTime(k));
            }
            assert!(fleet.is_stopped(idx), "{stop:?}");
            assert_eq!(fleet.peer_count(idx), 0);
            assert!(fleet.entries(idx).is_empty());
            assert_eq!(fleet.next_wakeup(idx), None);
            assert!(fleet.due_probes(idx, SimTime(100_000_000)).is_empty());
            // Recovery reinstalls (new generation) and resumes.
            fleet.on_controller_poll(
                idx,
                ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 4, 2)),
                SimTime(10),
            );
            assert!(!fleet.is_stopped(idx));
            assert_eq!(fleet.peer_count(idx), 2);
            assert!(fleet.next_wakeup(idx).is_some());
            // Re-armed: two more failures are again tolerated.
            fleet.on_controller_poll(idx, ControllerPollOutcome::Unreachable, SimTime(11));
            fleet.on_controller_poll(idx, ControllerPollOutcome::Unreachable, SimTime(12));
            assert!(!fleet.is_stopped(idx));
        }
    }

    #[test]
    fn sanitization_is_counted() {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let idx = fleet.push_server(ServerId(0));
        let mut pl = pinglist(ServerId(0), 1, 2);
        pl.entries[0].interval = SimDuration::from_secs(1); // below the floor
        fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl), SimTime::ZERO);
        assert_eq!(fleet.sanitized_entries(idx), 1);
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
        let rec = batch[0];
        let topo = topo();
        assert_eq!(rec.src_pod, topo.server(ServerId(0)).pod);
        assert_eq!(rec.dst_pod, topo.server(ServerId(1)).pod);
        assert_eq!(rec.src_dc, rec.dst_dc);
        assert!(rec.is_intra_pod());
    }

    #[test]
    fn unresolved_targets_count_but_produce_no_record() {
        let (mut fleet, idx) = fleet_of_one(1);
        probe_once(&mut fleet, idx, None, ProbeOutcome::Timeout);
        assert_eq!(fleet.counters(idx).probes_failed, 1);
        assert_eq!(fleet.probes_observed(idx), 1);
        assert_eq!(fleet.unresolved_probes(idx), 1);
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
        assert_eq!(fleet.counters(idx).probes_sent, 0, "window reset");
        assert_eq!(fleet.probes_observed(idx), 1, "lifetime ledger is not");
    }

    /// The upload cycle as a driver sees it: age trigger, one batch in
    /// flight, retry verdicts, and the discard ledger once the budget is
    /// spent.
    #[test]
    fn upload_cycle_retries_then_discards() {
        let (mut fleet, idx) = fleet_of_one(3);
        while fleet.buffered_records(idx) < 3 {
            probe_once(&mut fleet, idx, Some(ServerId(1)), OK);
        }
        let n = fleet.buffered_records(idx);
        let newest = fleet.next_wakeup(idx).unwrap();
        assert!(!fleet.upload_due(idx, newest), "below batch size and age");
        assert!(fleet.upload_due(idx, newest + AgentConfig::default().upload_max_age));
        let batch = fleet.begin_upload(idx).unwrap();
        assert_eq!(batch.len() as u64, n);
        assert!(fleet.has_pending_upload(idx));
        assert!(fleet.begin_upload(idx).is_none(), "one batch in flight");
        for _ in 0..AgentConfig::default().upload_retries {
            assert!(fleet.on_upload_result(idx, false), "retry the held batch");
        }
        assert!(!fleet.on_upload_result(idx, false), "budget spent: discard");
        assert!(!fleet.has_pending_upload(idx));
        assert_eq!(fleet.discarded_total(idx), n);
        assert_eq!(fleet.counters(idx).records_discarded, n);
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
            .iter()
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
        assert_eq!(fleet.peer_count(a), 9);
        assert_eq!(fleet.peer_count(b), 2);
        assert_eq!(fleet.entries(b), &pinglist(ServerId(5), 1, 2).entries[..]);
        let tb = fleet.next_wakeup(b).unwrap();
        let due_b = fleet.due_probes(b, tb);
        assert!(!due_b.is_empty());
        assert!(due_b.iter().all(|d| d.entry_index < 2));
    }
}
