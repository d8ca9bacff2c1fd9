//! The end-to-end orchestrator: a sharded discrete-event engine.
//!
//! Builds a full Pingmesh deployment over a simulated network and drives
//! it at paper scale. The fleet is partitioned by **podset** into shards,
//! each owning its agents' pending events and [`AgentFleet`]
//! (struct-of-arrays hot state); shards advance sim-time in parallel
//! between **tick barriers**:
//!
//! * every server's **agent** polls the controller VIP, launches probes
//!   at its scheduled times, buffers results and uploads them with
//!   retry-then-discard semantics — all inside its shard, which runs its
//!   epoch agent by agent: each agent's events back to back, in the
//!   order they were scheduled;
//! * at each barrier the shards' side effects are merged in canonical
//!   order: deferred store uploads (still packed, 32 bytes a record, until
//!   the store appends them) sorted by `(time, server)`, switch-
//!   counter deltas summed (commutative), probe/metric counts flushed;
//! * the **PA pipeline** (5-minute counter sweep), the **job manager**
//!   (10-min / 1-h / 1-day DSA jobs) and the **repair loop** (reloads,
//!   traceroute campaigns, isolations — the §5 detect-localize-mitigate
//!   story) run barrier-sequentially with full access to the world.
//!
//! ## Why runs are bit-identical at any shard count
//!
//! Agents never exchange events: a probe resolves instantaneously
//! against the network state, which is immutable during an epoch. The
//! only per-probe randomness comes from [`NetState::probe_keyed`]'s
//! counter-based RNG — a pure function of (run seed, five-tuple, launch
//! time) — so a probe's outcome is independent of execution order. The
//! barrier-side traceroute campaigns and verification probes draw from
//! the same keyed RNG, so no campaign depends on what ran before it. Every
//! remaining cross-shard effect (uploads, counter deltas, probe counts)
//! is either merged in a canonical sort order or commutative. The same
//! holds between the agents of one shard, so running a shard's epoch
//! agent by agent instead of in global time order changes no output
//! (DESIGN §11 has the tie rule that keeps each agent's own order). Epoch
//! boundaries line up with the global events (PA, jobs) plus a
//! `BARRIER_INTERVAL` heartbeat, none of which depend on the shard
//! layout. `shards = 1` *is* the serial engine — same code path, no
//! thread spawn.

use crate::mitigation::{self, MitDevice, PlannedProbe, VERIFY_DST_PORT};
use crate::repair::RepairService;
use crate::watchdog::detect_podset_power_down;
use pingmesh_agent::{AgentConfig, AgentFleet, AgentView, ControllerPollOutcome, UploadBatch};
use pingmesh_controller::{
    ControllerCluster, Decision, FindingKind, GeneratorConfig, MitigationConfig, MitigationEngine,
    MitigationState, PinglistGenerator, PinglistSource, VerifyOutcome,
};
use pingmesh_dsa::jobs::{JobKind, JobManager, Pipeline};
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_dsa::{
    EscalationFinding, ExpectedPairs, LatencyPattern, PairKey, PerfCounterAggregator,
    SilentDropFinding,
};
use pingmesh_netsim::net::CounterDelta;
use pingmesh_netsim::{tcp_traceroute, DcProfile, NetState, SimNet, TracerouteReport};
use pingmesh_topology::{ServiceMap, Topology};
use pingmesh_types::{
    DcId, DownWindows, FiveTuple, PingTarget, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord,
    QosClass, ServerId, SimDuration, SimTime, SwitchId, SwitchTier,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// PA counter collection interval (the paper's 5-minute fast path).
const PA_INTERVAL: SimDuration = SimDuration::from_mins(5);

/// Maximum sim-time an epoch may span between barriers. Barriers also
/// land on every global event (PA sweep, job tick), so this only bounds
/// how long shards run unsynchronized; it does not affect results.
const BARRIER_INTERVAL: SimDuration = SimDuration::from_mins(1);

/// Orchestrator configuration.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Agent tunables.
    pub agent: AgentConfig,
    /// Pinglist generation parameters.
    pub generator: GeneratorConfig,
    /// Controller replicas behind the VIP.
    pub controller_replicas: usize,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Whether findings act on the fabric (§5): black-hole candidates are
    /// reloaded under the repair service's daily budget, and the
    /// mitigation engine drains, verifies and un-drains silent-drop and
    /// escalation suspects (out of ECMP) and dark podsets (out of the
    /// pinglists). Off, the detectors still report into [`SimOutputs`]
    /// with nothing cleaning up.
    pub auto_mitigate: bool,
    /// Mitigation engine tunables (drain budget, soak, cooldown).
    pub mitigation: MitigationConfig,
    /// Simulation shards. Podsets are distributed round-robin over
    /// shards; `1` (the default) runs the serial engine inline. Output is
    /// bit-identical at any value.
    pub shards: usize,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            agent: AgentConfig::default(),
            generator: GeneratorConfig::default(),
            controller_replicas: 2,
            seed: 0xC0FFEE,
            auto_mitigate: true,
            mitigation: MitigationConfig::default(),
            shards: 1,
        }
    }
}

/// Everything the run produced, for inspection by experiments.
#[derive(Debug, Default)]
pub struct SimOutputs {
    /// Alert transitions from the 10-min pipeline.
    pub alerts: Vec<pingmesh_dsa::Alert>,
    /// Per-window pattern verdicts: (window start, DC, pattern).
    pub patterns: Vec<(SimTime, DcId, LatencyPattern)>,
    /// Silent-drop incidents raised.
    pub incidents: Vec<SilentDropFinding>,
    /// Black-hole reload candidates seen per hourly run.
    pub blackhole_candidates: Vec<(SimTime, SwitchId, f64)>,
    /// Podset escalations from black-hole detection.
    pub escalations: Vec<(SimTime, pingmesh_types::PodsetId)>,
    /// Traceroute campaigns run: (time, merged report).
    pub traceroutes: Vec<(SimTime, TracerouteReport)>,
    /// Probes executed in total.
    pub probes_run: u64,
}

/// One pending agent event: when it fires, and its schedule stamp (the
/// shard's count of events scheduled before it), which orders it against
/// the agent's other events at the same instant — the order a
/// time-ordered queue with a FIFO tie-break would pop them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    at: SimTime,
    stamp: u64,
}

/// An empty wake slot: sorts after every armed one.
const NO_WAKE: Slot = Slot {
    at: SimTime(u64::MAX),
    stamp: u64::MAX,
};

/// A deferred store upload: decided (and agent-side accounted) at wake
/// time inside a shard, applied to the store at the barrier in canonical
/// `(time, server)` order. The batch stays packed until then.
struct DeferredUpload {
    time: SimTime,
    batch: UploadBatch,
}

/// Everything a shard may read during an epoch. All `&self`, shared by
/// every worker thread.
struct EpochCtx<'a> {
    net: &'a NetState,
    seed: u64,
    cluster: &'a ControllerCluster,
    store_outages: &'a DownWindows,
    topo: &'a Topology,
    poll_interval: SimDuration,
    obs_enabled: bool,
}

/// One podset shard: its agents, their pending events, and the epoch's
/// buffered side effects (merged and drained at each barrier).
struct Shard {
    fleet: AgentFleet,
    /// By fleet index: the agent's one pending controller poll (each poll
    /// schedules the next) ...
    polls: Vec<Slot>,
    /// ... and its one wake chain, [`NO_WAKE`] while it has none. The
    /// wake's time is the one it was scheduled for, which after a
    /// reinstall is not the fleet's `next_wakeup`.
    wakes: Vec<Slot>,
    /// Events scheduled (the next stamp), run, and superseded by an
    /// earlier wake before they ran, over the shard's life; and the
    /// scheduled and run counts as the last barrier published them.
    scheduled: u64,
    run: u64,
    superseded: u64,
    published: (u64, u64),
    uploads: Vec<DeferredUpload>,
    counter_delta: CounterDelta,
    probes_run: u64,
    timeouts: u64,
    rtts: Vec<SimDuration>,
}

impl Shard {
    fn new(topo: Arc<Topology>, agent_config: AgentConfig) -> Self {
        Self {
            fleet: AgentFleet::new(topo, agent_config),
            polls: Vec::new(),
            wakes: Vec::new(),
            scheduled: 0,
            run: 0,
            superseded: 0,
            published: (0, 0),
            uploads: Vec::new(),
            counter_delta: CounterDelta::new(),
            probes_run: 0,
            timeouts: 0,
            rtts: Vec::new(),
        }
    }

    /// Adds an idle agent for `s` whose first controller poll is at
    /// `first_poll`; returns its fleet index.
    fn push_server(&mut self, s: ServerId, first_poll: SimTime) -> u32 {
        let poll = self.slot(first_poll);
        self.polls.push(poll);
        self.wakes.push(NO_WAKE);
        self.fleet.push_server(s) as u32
    }

    /// A slot for an event at `at`, stamped after every event scheduled
    /// before it.
    fn slot(&mut self, at: SimTime) -> Slot {
        self.scheduled += 1;
        Slot {
            at,
            stamp: self.scheduled - 1,
        }
    }

    /// Arms agent `i`'s wake chain at `at`. An agent has one chain: a
    /// wake already pending at or before `at` covers this one (each wake
    /// fires whatever is due and re-arms at the fleet's next wakeup), and
    /// a later pending wake is superseded: it never runs.
    fn schedule_wake(&mut self, i: usize, at: SimTime) {
        let pending = self.wakes[i];
        if pending.at <= at {
            return;
        }
        if pending != NO_WAKE {
            self.superseded += 1;
        }
        self.wakes[i] = self.slot(at);
    }

    /// Events scheduled and neither run nor superseded.
    fn pending(&self) -> u64 {
        self.scheduled - self.run - self.superseded
    }

    /// Runs every pending event with `time ≤ t_end`, agent by agent in
    /// fleet order; returns the number of events run. An agent's
    /// events run in `(time, stamp)` order, the order a shard-wide
    /// time-ordered queue would pop them in. No agent reads another's
    /// state within an epoch (DESIGN §11), so running each agent's epoch
    /// back to back changes nothing but where its state sits in cache.
    fn run_epoch(&mut self, t_end: SimTime, ctx: &EpochCtx<'_>) -> u64 {
        let before = self.run;
        for i in 0..self.fleet.len() {
            self.run_agent(i, t_end, ctx);
        }
        self.run - before
    }

    /// Runs agent `i`'s events with `time ≤ t_end`, least `(time, stamp)`
    /// first.
    fn run_agent(&mut self, i: usize, t_end: SimTime, ctx: &EpochCtx<'_>) {
        loop {
            let (poll, wake) = (self.polls[i], self.wakes[i]);
            if poll.min(wake).at > t_end {
                return;
            }
            self.run += 1;
            if wake < poll {
                self.wakes[i] = NO_WAKE;
                self.handle_wake(wake.at, i, ctx);
            } else {
                self.handle_poll(poll.at, i, ctx);
            }
        }
    }

    fn handle_poll(&mut self, now: SimTime, idx: usize, ctx: &EpochCtx<'_>) {
        self.polls[idx] = self.slot(now + ctx.poll_interval);
        let s = self.fleet.server(idx);
        if !ctx.net.server_is_up(s, now) {
            return; // the server has no power; it will poll when back
        }
        let had_schedule = self.fleet.next_wakeup(idx).is_some();
        let outcome = match ctx.cluster.fetch(s, now) {
            Ok(Some(pl)) => ControllerPollOutcome::Pinglist(pl),
            Ok(None) => ControllerPollOutcome::NoPinglist,
            Err(_) => ControllerPollOutcome::Unreachable,
        };
        self.fleet.on_controller_poll(idx, outcome, now);
        // Wake when a schedule (re)appeared, or now when one is due now;
        // a wake of this agent's chain still pending at `now` (scheduled
        // after this poll) already covers the latter.
        if let Some(t) = self.fleet.next_wakeup(idx) {
            if !had_schedule || t <= now {
                self.schedule_wake(idx, t.max(now));
            }
        }
    }

    fn handle_wake(&mut self, now: SimTime, idx: usize, ctx: &EpochCtx<'_>) {
        let s = self.fleet.server(idx);
        if !ctx.net.server_is_up(s, now) {
            // Powered off: drop this chain; the poll handler will restart
            // probing after power returns (next poll re-fetches the list).
            self.fleet
                .on_controller_poll(idx, ControllerPollOutcome::NoPinglist, now);
            return;
        }
        let due = self.fleet.due_probes(idx, now);
        for probe in &due {
            let target_ip = match probe.entry.target {
                PingTarget::Server { ip, .. } | PingTarget::Vip { ip, .. } => ip,
            };
            let attempt = ctx.net.probe_keyed(
                ctx.seed,
                &mut self.counter_delta,
                s,
                target_ip,
                probe.src_port,
                probe.entry.port,
                probe.entry.kind,
                probe.entry.qos,
                now,
            );
            self.probes_run += 1;
            match attempt.outcome {
                ProbeOutcome::Success { rtt } => {
                    if ctx.obs_enabled {
                        self.rtts.push(rtt);
                    }
                }
                ProbeOutcome::Timeout => self.timeouts += 1,
                ProbeOutcome::Refused => {}
            }
            self.fleet
                .record_outcome(idx, probe, attempt.dst, attempt.outcome, now);
        }
        self.fleet.recycle_due(due);
        // Upload path: batch triggers + retry-then-discard. Whether the
        // store front end is reachable is a pure function of `now`, so
        // success is decided here, once (the retry loop can't change a
        // verdict frozen in sim-time); the store mutation itself is
        // deferred to the barrier.
        if self.fleet.upload_due(idx, now) {
            if let Some(batch) = self.fleet.begin_upload(idx) {
                pingmesh_obs::trace::on_upload_batch(batch.records(ctx.topo), Some(now));
                if ctx.store_outages.is_up(now) {
                    let bytes = (batch.len() * ProbeRecord::WIRE_SIZE) as u64;
                    self.fleet.note_uploaded(idx, bytes);
                    self.fleet.on_upload_result(idx, true);
                    self.uploads.push(DeferredUpload { time: now, batch });
                } else {
                    // Every synchronous retry hits the same downed store:
                    // spin the bookkeeping until retries exhaust.
                    while self.fleet.on_upload_result(idx, false) {}
                    self.fleet.recycle_batch(idx, batch);
                }
            }
        }
        if let Some(t) = self.fleet.next_wakeup(idx) {
            self.schedule_wake(idx, t.max(now));
        }
    }
}

/// The orchestrator.
pub struct Orchestrator {
    net: SimNet,
    shards: Vec<Shard>,
    /// `server.index()` → (shard, fleet index within the shard).
    shard_of: Vec<(u32, u32)>,
    cluster: ControllerCluster,
    /// When the store's upload front end is unreachable (the simulated
    /// environment, like `cluster`'s replica outages — not store state).
    store_outages: DownWindows,
    pipeline: Pipeline,
    pa: PerfCounterAggregator,
    jobman: JobManager,
    repair: RepairService,
    mitigation: MitigationEngine<MitDevice>,
    /// Podsets currently drained out of pinglist generation (power-down
    /// mitigation). Ordered so regeneration filtering is deterministic.
    excluded_podsets: BTreeSet<PodsetId>,
    config: OrchestratorConfig,
    outputs: SimOutputs,
    generation: u64,
    now: SimTime,
    next_pa: SimTime,
}

impl Orchestrator {
    /// Builds a deployment: network, controller cluster with generated
    /// pinglists, one agent per server (sharded by podset), DSA pipeline,
    /// and the initial event population.
    pub fn new(
        topo: Arc<Topology>,
        profiles: Vec<DcProfile>,
        services: ServiceMap,
        config: OrchestratorConfig,
    ) -> Self {
        let net = SimNet::new(topo.clone(), profiles, config.seed);
        let cluster = ControllerCluster::new(config.controller_replicas);

        // Partition by podset, podsets round-robin over shards. The
        // assignment is pure topology, so the per-shard server order (and
        // with it every fleet index) is independent of anything else.
        let nshards = config.shards.clamp(1, topo.podset_count().max(1));
        let mut shards: Vec<Shard> = (0..nshards)
            .map(|_| Shard::new(topo.clone(), config.agent.clone()))
            .collect();
        let mut shard_of = vec![(0u32, 0u32); topo.server_count()];
        // Stagger the initial controller polls over the first minute by
        // *global* server index so the fleet does not stampede the VIP —
        // and so the stagger is identical at any shard count.
        let n = topo.server_count().max(1) as u64;
        for (i, s) in topo.servers().enumerate() {
            let sh = topo.server(s).podset.index() % nshards;
            let offset = (i as u64 * 60_000_000) / n;
            let idx = shards[sh].push_server(s, SimTime(offset));
            shard_of[s.index()] = (sh as u32, idx);
        }

        let pipeline = Pipeline::new(topo.clone(), services, CosmosStore::with_defaults());
        let jobman = JobManager::new();
        let next_pa = SimTime::ZERO + PA_INTERVAL;

        let mitigation = MitigationEngine::new(config.mitigation);
        let mut o = Self {
            net,
            shards,
            shard_of,
            cluster,
            store_outages: DownWindows::default(),
            pipeline,
            pa: PerfCounterAggregator::new(),
            jobman,
            repair: RepairService::new(),
            mitigation,
            excluded_podsets: BTreeSet::new(),
            config,
            outputs: SimOutputs::default(),
            generation: 0,
            now: SimTime::ZERO,
            next_pa,
        };
        o.regenerate_pinglists(o.config.generator.clone());
        o
    }

    /// The simulated network (inject faults, VIPs, profiles before or
    /// between runs).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// The simulated network (read).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The controller cluster (read).
    pub fn cluster(&self) -> &ControllerCluster {
        &self.cluster
    }

    /// The controller cluster (schedule outages, clear pinglists).
    pub fn cluster_mut(&mut self) -> &mut ControllerCluster {
        &mut self.cluster
    }

    /// Makes the store refuse uploads over `[from, until)`: agents that
    /// wake inside the window retry, then discard (§3.4).
    pub fn add_store_outage(&mut self, from: SimTime, until: SimTime) {
        self.store_outages.add(from, Some(until));
    }

    /// The DSA pipeline (results DB, store, detectors).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable DSA pipeline access (tune detector configs).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// The PA fast path.
    pub fn pa(&self) -> &PerfCounterAggregator {
        &self.pa
    }

    /// Run outputs so far.
    pub fn outputs(&self) -> &SimOutputs {
        &self.outputs
    }

    /// The repair service (the §5.1 reload budget and its log).
    pub fn repair(&self) -> &RepairService {
        &self.repair
    }

    /// The mitigation engine (drain states, transition log, counters).
    pub fn mitigation(&self) -> &MitigationEngine<MitDevice> {
        &self.mitigation
    }

    /// Every switch drain the engine decided, in order: the (time,
    /// switch) of each of its `→ Pending` transitions — the §5.2 "taken
    /// out of service for RMA" record, read off the engine's one log.
    pub fn switch_drains(&self) -> impl Iterator<Item = (SimTime, SwitchId)> + '_ {
        self.mitigation
            .transitions()
            .iter()
            .filter(|t| t.to == MitigationState::Pending)
            .filter_map(|t| match t.device {
                MitDevice::Switch(sw) => Some((t.at, sw)),
                MitDevice::Podset(_) => None,
            })
    }

    /// Podsets currently drained out of pinglist generation.
    pub fn excluded_podsets(&self) -> &BTreeSet<PodsetId> {
        &self.excluded_podsets
    }

    /// One agent, by server id (diagnostics / invariant checks).
    pub fn agent(&self, s: ServerId) -> AgentView<'_> {
        let (sh, idx) = self.shard_of[s.index()];
        self.shards[sh as usize].fleet.view(idx as usize)
    }

    /// Number of simulation shards actually in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Starts the next pinglist generation (e.g. after a topology/config
    /// change): the controller cluster generates each list when it is
    /// fetched, drained podsets cut out of the mesh. Agents pick the new
    /// generation up at their next poll — the controller never pushes.
    pub fn regenerate_pinglists(&mut self, generator_config: GeneratorConfig) {
        self.generation += 1;
        self.config.generator = generator_config.clone();
        let generator = PinglistGenerator::new(generator_config)
            .with_excluded_podsets(self.excluded_podsets.clone());
        let topo = self.net.topology().clone();
        let source = PinglistSource::new(topo.clone(), generator, self.generation);
        // Provenance and quality read the lists once each: sampled traces
        // are armed and the pod pairs the generation should report derived.
        pingmesh_obs::trace::arm_from_pinglists(source.lists(), Some(self.now));
        let expected = ExpectedPairs::from_pinglists(&topo, source.lists());
        self.pipeline.set_expected_pairs(Arc::new(expected));
        self.cluster.set_pinglists(source);
    }

    /// Runs the simulation until virtual time `end` (inclusive of events
    /// at `end`): epochs of parallel shard execution separated by
    /// barriers, with global events (PA, jobs) on barrier boundaries.
    pub fn run_until(&mut self, end: SimTime) {
        let virtual_start = self.now;
        let wall_start = std::time::Instant::now();
        let mut processed: u64 = 0;
        while self.now < end {
            let t_epoch = end
                .min(self.next_pa)
                .min(self.jobman.next_wakeup())
                .min(self.now + BARRIER_INTERVAL);
            let ctx = EpochCtx {
                net: self.net.state(),
                seed: self.net.run_seed(),
                cluster: &self.cluster,
                store_outages: &self.store_outages,
                topo: self.net.topology(),
                poll_interval: self.config.agent.controller_poll_interval,
                obs_enabled: pingmesh_obs::enabled(),
            };
            let counts = if self.shards.len() == 1 {
                vec![self.shards[0].run_epoch(t_epoch, &ctx)]
            } else {
                let threads = pingmesh_par::max_threads().min(self.shards.len());
                pingmesh_par::par_map_mut_threads(threads, &mut self.shards, |_, sh| {
                    sh.run_epoch(t_epoch, &ctx)
                })
            };
            processed += counts.iter().sum::<u64>();
            self.barrier_merge();
            self.now = t_epoch;
            if self.now == self.next_pa {
                self.handle_pa(self.now);
            }
            if self.jobman.next_wakeup() <= self.now {
                self.handle_jobs(self.now);
                processed += 1;
            }
        }
        pingmesh_obs::registry()
            .counter("pingmesh_core_events_total")
            .add(processed);
        if pingmesh_obs::enabled() && processed > 0 {
            let wall_s = wall_start.elapsed().as_secs_f64();
            let virtual_s = self.now.since(virtual_start).as_secs_f64();
            let ratio = if wall_s > 0.0 {
                virtual_s / wall_s
            } else {
                0.0
            };
            let eps = if wall_s > 0.0 {
                processed as f64 / wall_s
            } else {
                0.0
            };
            pingmesh_obs::registry()
                .gauge("pingmesh_core_events_per_sec")
                .set(eps);
            pingmesh_obs::registry()
                .gauge("pingmesh_core_virtual_wall_ratio")
                .set(ratio);
            pingmesh_obs::emit_sim!(self.now; Info, "core.orchestrator", "run_until",
                "events" => processed,
                "events_per_sec" => eps,
                "virtual_wall_ratio" => ratio,
                "queue_depth" => self.shards.iter().map(Shard::pending).sum::<u64>(),
                "shards" => self.shards.len() as u64,
            );
        }
    }

    /// Merges every shard's buffered epoch side effects in canonical
    /// order, making the world state identical to what a serial run would
    /// have produced.
    fn barrier_merge(&mut self) {
        // Deferred uploads, globally sorted by (time, server). The key is
        // unique — an agent produces at most one upload per wake instant —
        // so the order is independent of shard layout.
        let mut uploads: Vec<DeferredUpload> = Vec::new();
        for sh in &mut self.shards {
            uploads.append(&mut sh.uploads);
        }
        uploads.sort_by_key(|u| (u.time, u.batch.src()));
        // The largest barrier's deferred bytes and records, process-wide.
        let registry = pingmesh_obs::registry();
        let bytes = registry.gauge("pingmesh_core_barrier_upload_bytes");
        let held: usize = uploads.iter().map(|u| u.batch.resident_bytes()).sum();
        if held as f64 > bytes.get() {
            bytes.set(held as f64);
            let records = uploads.iter().map(|u| u.batch.len()).sum::<usize>();
            registry
                .gauge("pingmesh_core_barrier_upload_records")
                .set(records as f64);
        }
        // Each batch is expanded into one reused buffer right before the
        // store appends it.
        let topo = self.net.topology();
        let mut records = Vec::new();
        for u in uploads {
            let (src, dc) = (u.batch.src(), topo.server(u.batch.src()).dc);
            records.clear();
            records.extend(u.batch.records(topo));
            let ok = self
                .pipeline
                .store
                .append(StreamName { dc }, &records, u.time);
            debug_assert!(ok, "the simulator's store is in-memory: it never refuses");
            let (sh, idx) = self.shard_of[src.index()];
            self.shards[sh as usize]
                .fleet
                .recycle_batch(idx as usize, u.batch);
        }
        // Switch counters: per-shard deltas, summed (commutative).
        for sh in &mut self.shards {
            self.net.merge_counters(&sh.counter_delta);
            sh.counter_delta.clear();
        }
        // Probe, event and agent metrics: one flush per shard per barrier.
        let scheduled = registry.counter("pingmesh_netsim_events_scheduled_total");
        let popped = registry.counter("pingmesh_netsim_events_popped_total");
        let mut pending = 0;
        for sh in &mut self.shards {
            self.outputs.probes_run += sh.probes_run;
            self.net
                .flush_probe_metrics(sh.probes_run, sh.timeouts, &sh.rtts);
            sh.probes_run = 0;
            sh.timeouts = 0;
            sh.rtts.clear();
            scheduled.add(sh.scheduled - sh.published.0);
            popped.add(sh.run - sh.published.1);
            sh.published = (sh.scheduled, sh.run);
            pending += sh.pending();
            sh.fleet.flush_metrics();
        }
        registry
            .gauge("pingmesh_netsim_queue_depth")
            .set(pending as f64);
    }

    fn handle_pa(&mut self, now: SimTime) {
        self.next_pa = now + PA_INTERVAL;
        let topo = self.net.topology().clone();
        for dc in topo.dcs() {
            let snaps: Vec<_> = topo
                .servers_in_dc(dc)
                .map(|s| {
                    let (sh, idx) = self.shard_of[s.index()];
                    self.shards[sh as usize]
                        .fleet
                        .collect_counters(idx as usize)
                })
                .collect();
            self.pa.collect(dc, now, snaps);
        }
    }

    fn handle_jobs(&mut self, now: SimTime) {
        let ticks = self.jobman.due(now);
        if !ticks.is_empty() {
            // Refresh the completeness denominator from the conservation
            // ledger: every observed probe that resolved and has left the
            // agent's buffer should be a stored record by now — discarded
            // records are the shortfall. (Still-buffered records are lag,
            // not loss; they are excluded rather than counted against.)
            let scheduled: u64 = self
                .shards
                .iter()
                .map(|sh| {
                    (0..sh.fleet.len())
                        .map(|i| {
                            let a = sh.fleet.view(i);
                            a.probes_observed() - a.unresolved_probes() - a.buffered_records()
                        })
                        .sum::<u64>()
                })
                .sum();
            self.pipeline.set_scheduled_probes(scheduled);
        }
        for tick in ticks {
            let out = self.pipeline.run_tick(tick);
            self.outputs.alerts.extend(out.alerts);
            for (dc, pattern) in out.patterns {
                self.outputs.patterns.push((tick.window_start, dc, pattern));
            }
            if let Some(bh) = out.blackholes {
                for c in &bh.reload_candidates {
                    self.outputs
                        .blackhole_candidates
                        .push((now, c.tor, c.score));
                    if self.config.auto_mitigate {
                        self.repair.request_reload(&mut self.net, c.tor, now);
                    }
                }
                for esc in &bh.escalations {
                    self.outputs.escalations.push((now, esc.podset));
                    if self.config.auto_mitigate {
                        self.mitigate_escalation(esc, now);
                    }
                }
            }
            for incident in out.incidents {
                self.localize_and_mitigate(&incident, now);
                self.outputs.incidents.push(incident);
            }
            // Podset power-down check rides the 10-min cadence: the
            // window the tick just closed is exactly the observation
            // the Figure-8(b) signature needs.
            if tick.kind == JobKind::TenMin && self.config.auto_mitigate {
                let agg = self
                    .pipeline
                    .store
                    .window_aggregate(tick.window_start, tick.window_end);
                let topo = self.net.topology().clone();
                for (ps, conf) in detect_podset_power_down(&agg, &topo) {
                    self.report(
                        MitDevice::Podset(ps),
                        FindingKind::PodsetPowerDown,
                        conf,
                        now,
                    );
                }
            }
        }
        // Drained devices whose soak has elapsed get their confirmation
        // probes here — barrier-sequential, so the probe set (and with it
        // the whole run) is identical at any shard count.
        if self.config.auto_mitigate {
            self.run_due_verifications(now);
        }
    }

    /// Routes a finding through the mitigation engine and actuates a
    /// drain decision.
    fn report(&mut self, dev: MitDevice, kind: FindingKind, confidence: f64, now: SimTime) {
        let (tier, size) = dev.tier(self.net.topology());
        match self
            .mitigation
            .report(dev, tier, size, kind, confidence, now)
        {
            Decision::Drain | Decision::DrainAndEscalate => self.actuate(dev, true),
            Decision::Rejected(_) => {}
        }
    }

    /// The one actuator: takes `dev` out of service (`drained`) or puts
    /// it back. A switch leaves or rejoins ECMP through the route tables'
    /// exclusion support; a podset leaves or rejoins pinglist generation,
    /// and the pinglists are regenerated when that set changes.
    fn actuate(&mut self, dev: MitDevice, drained: bool) {
        match dev {
            MitDevice::Switch(sw) if drained => self.net.faults_mut().isolate_switch(sw),
            MitDevice::Switch(sw) => self.net.faults_mut().unisolate_switch(sw),
            MitDevice::Podset(ps) => {
                let changed = if drained {
                    self.excluded_podsets.insert(ps)
                } else {
                    self.excluded_podsets.remove(&ps)
                };
                if changed {
                    self.regenerate_pinglists(self.config.generator.clone());
                }
            }
        }
    }

    /// Traceroutes up to 8 of a finding's suspect pairs, pair `i` from
    /// source ports `port_base + 128·i`, and merges the reports. Every
    /// flow draws from its own keyed RNG, so the result depends only on
    /// the network state and these arguments.
    fn traceroute_campaign(
        &mut self,
        pairs: &[PairKey],
        port_base: u16,
        now: SimTime,
    ) -> TracerouteReport {
        let mut merged = TracerouteReport::default();
        let mut delta = CounterDelta::new();
        for (i, pair) in pairs.iter().take(8).enumerate() {
            let port = port_base + (i as u16) * 128;
            merged.merge(&tcp_traceroute(
                self.net.state(),
                self.net.run_seed(),
                &mut delta,
                pair.src,
                pair.dst,
                64,
                100,
                port,
                now,
            ));
        }
        self.net.merge_counters(&delta);
        merged
    }

    /// A black-hole podset escalation: traceroute the blackholed pairs,
    /// pin the loss on a Leaf/Spine device, and hand it to the engine.
    fn mitigate_escalation(&mut self, esc: &EscalationFinding, now: SimTime) {
        if esc.suspect_pairs.is_empty() {
            return;
        }
        // Base ports 21_000+ (flows on 21_000–21_959) keep the keyed RNG
        // streams disjoint from the silent-drop campaigns' (20_000–20_959)
        // when both traceroute one pair at one time.
        let merged = self.traceroute_campaign(&esc.suspect_pairs, 21_000, now);
        // A type-2 black hole drops its flows deterministically, so the
        // guilty device's attributed loss is far above background noise.
        let candidate = merged
            .suspects(0.05, 100)
            .into_iter()
            .map(|(sw, _)| sw)
            .find(|sw| matches!(sw.tier, SwitchTier::Leaf | SwitchTier::Spine));
        if let Some(sw) = candidate {
            self.report(
                MitDevice::Switch(sw),
                FindingKind::Blackhole,
                esc.confidence,
                now,
            );
        }
        self.outputs.traceroutes.push((now, merged));
    }

    /// Runs confirmation probes for every drained device whose soak
    /// period has elapsed, and acts on the engine's verdicts: anything
    /// but an un-drain leaves the device drained.
    fn run_due_verifications(&mut self, now: SimTime) {
        for dev in self.mitigation.due_verifications(now) {
            let topo = self.net.topology().clone();
            let plan = match dev {
                MitDevice::Switch(sw) => {
                    // Lift the exclusion first: verification must exercise
                    // the paths traffic would take with the device back in
                    // service.
                    self.actuate(dev, false);
                    let net = self.net.state();
                    mitigation::plan_switch_verification(&topo, sw, 12, 512, |src, dst, port| {
                        let tuple =
                            FiveTuple::tcp(topo.ip_of(src), port, topo.ip_of(dst), VERIFY_DST_PORT);
                        net.path_of(src, dst, &tuple).switches().collect::<Vec<_>>()
                    })
                }
                MitDevice::Podset(ps) => mitigation::plan_podset_verification(&topo, ps, 12),
            };
            let (ok, n) = (self.run_planned_probes(&topo, &plan, now), plan.len());
            // Healthy needs real evidence. A switch: enough probes actually
            // traversed it, and nearly all came back. A podset: at least
            // half of its outside-in probes answered.
            let healthy = match dev {
                MitDevice::Switch(_) => n >= 4 && ok * 10 >= n * 9,
                MitDevice::Podset(_) => n > 0 && ok * 2 >= n,
            };
            let verdict = self.mitigation.record_verification(dev, healthy, now);
            self.actuate(dev, verdict != VerifyOutcome::Undrain);
        }
    }

    /// Fires planned confirmation probes against live network state;
    /// returns how many came back.
    fn run_planned_probes(
        &mut self,
        topo: &Topology,
        plan: &[PlannedProbe],
        now: SimTime,
    ) -> usize {
        let mut delta = CounterDelta::new();
        let mut ok = 0usize;
        for p in plan {
            let attempt = self.net.state().probe_keyed(
                self.net.run_seed(),
                &mut delta,
                p.src,
                topo.ip_of(p.dst),
                p.src_port,
                VERIFY_DST_PORT,
                ProbeKind::TcpSyn,
                QosClass::High,
                now,
            );
            if matches!(attempt.outcome, ProbeOutcome::Success { .. }) {
                ok += 1;
            }
        }
        self.net.merge_counters(&delta);
        ok
    }

    /// §5.2 in code: traceroute the worst pairs of an incident, rank
    /// switches by attributed loss, drain the top one.
    fn localize_and_mitigate(&mut self, incident: &SilentDropFinding, now: SimTime) {
        if incident.suspect_pairs.is_empty() {
            return;
        }
        let merged = self.traceroute_campaign(&incident.suspect_pairs, 20_000, now);
        // A switch is suspect when its attributed loss clearly exceeds
        // what the DC-wide incident rate predicts for a healthy device;
        // half the incident rate separates the faulty switch (whose
        // per-packet loss must be at least the diluted DC rate) from the
        // 1e-5-class background.
        let min_rate = (incident.drop_rate * 0.5).max(5.0 * incident.baseline.max(1e-5));
        let suspects = merged.suspects(min_rate, 500);
        if self.config.auto_mitigate {
            if let Some(&(sw, rate)) = suspects.first() {
                // The incident's own confidence only measures how far the
                // DC-wide rate cleared the alarm bar — a diluted spine
                // fault can be unambiguous yet barely double the bar.
                // The localization is the stronger evidence: the
                // suspect's *attributed* loss rate cleared `min_rate`,
                // and the margin by which it did is how sure we are
                // that this switch (and not background noise) drops the
                // packets. Forward whichever signal is stronger.
                let localization = (1.0 - min_rate / rate.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
                let confidence = incident.confidence.max(localization);
                self.report(
                    MitDevice::Switch(sw),
                    FindingKind::SilentDrop,
                    confidence,
                    now,
                );
            }
        }
        self.outputs.traceroutes.push((now, merged));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_topology::{DcSpec, TopologySpec};

    fn small_orchestrator_with(config: OrchestratorConfig) -> Orchestrator {
        let topo = Arc::new(
            Topology::build(TopologySpec {
                dcs: vec![DcSpec::tiny("t")],
            })
            .unwrap(),
        );
        Orchestrator::new(topo, vec![DcProfile::ideal()], ServiceMap::new(), config)
    }

    fn small_orchestrator_sharded(shards: usize) -> Orchestrator {
        small_orchestrator_with(OrchestratorConfig {
            shards,
            ..OrchestratorConfig::default()
        })
    }

    fn small_orchestrator() -> Orchestrator {
        small_orchestrator_sharded(1)
    }

    #[test]
    fn agents_probe_and_upload_end_to_end() {
        let mut o = small_orchestrator();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(25));
        assert!(o.outputs().probes_run > 100, "{}", o.outputs().probes_run);
        assert!(
            o.pipeline().store.record_count() > 0,
            "uploads must reach the store"
        );
        // The 10-min job has run and produced DC-level SLA rows.
        let row = o.pipeline().db.latest(pingmesh_dsa::ScopeKey::Dc(DcId(0)));
        assert!(row.is_some());
        let row = row.unwrap();
        assert!(row.samples > 0);
        assert!(row.p50_us > 0);
        assert!(row.drop_rate < 1e-3, "ideal profile has no drops");
    }

    #[test]
    fn window_investigation_expands_one_extent_run_at_a_time() {
        let mut o = small_orchestrator();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(25));
        let store = &o.pipeline().store;
        // A scan yields one extent run per chunk, expanded from the packed
        // store as it is read and dropped by the reader, so no chunk is
        // longer than an extent and the window is never expanded at once.
        let chunks = store.scan_all_window_chunks(SimTime::ZERO, o.now());
        let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(lens.len(), chunks.len());
        assert!(lens.iter().all(|&n| n > 0 && n <= store.extent_cap()));
        assert_eq!(lens.iter().sum::<usize>() as u64, store.record_count());
        let inv = pingmesh_dsa::investigate(chunks.records(), o.net().topology(), 8, |_| true);
        assert!(inv.probes > 0, "the window has uploaded probes");
        assert_eq!(inv.bad_probes, 0, "ideal profile has no drops");
    }

    #[test]
    fn store_outage_lands_no_upload_inside_the_window_at_any_shard_count() {
        let mins = |m| SimTime::ZERO + SimDuration::from_mins(m);
        let run = |shards: usize| {
            // Batches upload within a minute of their oldest record, so a
            // record probed in [5, 43) min can only have been uploaded
            // inside the [5, 45) min outage.
            let mut config = OrchestratorConfig {
                shards,
                ..OrchestratorConfig::default()
            };
            config.agent.upload_max_age = SimDuration::from_mins(1);
            let mut o = small_orchestrator_with(config);
            o.add_store_outage(mins(5), mins(45));
            o.run_until(mins(60));
            let store = &o.pipeline().store;
            let stored = |a, b| {
                let chunks = store.scan_all_window_chunks(mins(a), mins(b));
                chunks.iter().map(|c| c.len()).sum::<usize>()
            };
            assert_eq!(stored(5, 43), 0, "shards={shards}");
            assert!(stored(0, 4) > 0 && stored(45, 60) > 0, "shards={shards}");
            let servers: Vec<ServerId> = o.net().topology().servers().collect();
            let discarded: u64 = servers.iter().map(|&s| o.agent(s).discarded_total()).sum();
            assert!(discarded > 0, "the outage must cost records");
            (
                o.outputs().probes_run,
                store.record_count(),
                store.logical_bytes(),
                o.pipeline().db.len(),
                discarded,
            )
        };
        assert_eq!(run(1), run(4), "sharding must not move the outage");
    }

    #[test]
    fn pa_collects_fleet_counters() {
        let mut o = small_orchestrator();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(12));
        let series = o.pa().series(DcId(0));
        assert!(!series.is_empty());
        assert!(series.iter().any(|s| s.probes_sent > 0));
    }

    #[test]
    fn healthy_run_raises_no_alerts_and_is_normal() {
        let mut o = small_orchestrator();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(40));
        assert!(o.outputs().alerts.is_empty(), "{:?}", o.outputs().alerts);
        assert!(o
            .outputs()
            .patterns
            .iter()
            .all(|&(_, _, p)| p == LatencyPattern::Normal));
        assert!(o.outputs().incidents.is_empty());
    }

    #[test]
    fn controller_outage_fail_closes_then_recovers() {
        let mut o = small_orchestrator();
        let servers: Vec<ServerId> = o.net().topology().servers().collect();
        // Both replicas down from minute 5 to minute 60.
        let from = SimTime::ZERO + SimDuration::from_mins(5);
        let until = SimTime::ZERO + SimDuration::from_mins(60);
        for i in 0..2 {
            o.cluster_mut().replica_mut(i).add_outage(from, Some(until));
        }
        // After 3 failed polls (10-min interval), agents stop probing.
        o.run_until(SimTime::ZERO + SimDuration::from_mins(45));
        let stopped = servers.iter().filter(|&&s| o.agent(s).is_stopped()).count();
        assert_eq!(stopped, servers.len(), "all agents fail-closed");
        let probes_when_stopped = o.outputs().probes_run;
        // Recovery after the outage ends.
        o.run_until(SimTime::ZERO + SimDuration::from_mins(90));
        let resumed = servers
            .iter()
            .filter(|&&s| !o.agent(s).is_stopped())
            .count();
        assert_eq!(resumed, servers.len(), "all agents resumed");
        assert!(o.outputs().probes_run > probes_when_stopped);
    }

    #[test]
    fn regeneration_reaches_agents_via_poll() {
        let mut o = small_orchestrator();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(5));
        o.regenerate_pinglists(GeneratorConfig {
            payload_probes: true,
            ..GeneratorConfig::default()
        });
        o.run_until(SimTime::ZERO + SimDuration::from_mins(30));
        // All agents picked up generation 2.
        let topo = o.net().topology().clone();
        assert!(topo.servers().all(|s| o.agent(s).generation() == 2));
    }

    #[test]
    fn sharded_run_matches_serial_bit_for_bit() {
        let end = SimTime::ZERO + SimDuration::from_mins(22);
        let run = |shards: usize| {
            let mut o = small_orchestrator_sharded(shards);
            o.run_until(end);
            (
                o.outputs().probes_run,
                o.pipeline().store.record_count(),
                o.pipeline().store.logical_bytes(),
                o.pipeline().db.len(),
            )
        };
        let serial = run(1);
        assert!(serial.0 > 100 && serial.1 > 0);
        for shards in [2, 4] {
            assert_eq!(run(shards), serial, "shards={shards} diverged");
        }
    }

    /// Events the shards have run.
    fn events_run(o: &Orchestrator) -> u64 {
        o.shards.iter().map(|sh| sh.run).sum()
    }

    /// When agent `s` first polls: the stagger `Orchestrator::new` gives.
    fn first_poll(s: ServerId) -> SimTime {
        let n = small_orchestrator().net().topology().server_count() as u64;
        SimTime(s.index() as u64 * 60_000_000 / n)
    }

    /// Agent `s`'s first three wakes after its first poll, on the default
    /// config: where its pinglist's phases put them.
    fn first_wakes(s: ServerId) -> [SimTime; 3] {
        let mut o = small_orchestrator();
        let mut t = first_poll(s);
        [(); 3].map(|()| {
            o.run_until(t);
            t = o.agent(s).next_wakeup().expect("a schedule");
            t
        })
    }

    #[test]
    fn agent_events_run_in_the_order_they_were_scheduled() {
        let with_poll_interval = |interval| {
            let mut config = OrchestratorConfig::default();
            config.agent.controller_poll_interval = interval;
            small_orchestrator_with(config)
        };
        let events_through = |o: &mut Orchestrator, t: SimTime| {
            o.run_until(t);
            events_run(o)
        };
        let before = |t: SimTime| SimTime(t.0 - 1);

        // Agent 3 polls again exactly at its first wake. That poll was
        // scheduled (by the first poll) before the wake was, so it runs
        // first and finds the wake due; the pending wake at that instant
        // covers it, so the agent keeps one chain: the first wake instant
        // runs two events, and each later one one.
        let a = ServerId(3);
        let [w1, w2, _] = first_wakes(a);
        let mut o = with_poll_interval(w1.since(first_poll(a)));
        let e = events_through(&mut o, before(w1));
        assert_eq!(events_through(&mut o, w1) - e, 2, "poll, then wake");
        let e = events_through(&mut o, before(w2));
        assert_eq!(events_through(&mut o, w2) - e, 1, "one chain wakes");

        // Agent 11 polls at half its first-poll-to-second-wake span. Its
        // second wake was scheduled (at its first wake) before its poll
        // at that instant was (at the poll before), so the wake runs first
        // and fires the old list's probes; then the poll installs a new
        // generation, whose first probe is due before the wake the old
        // list scheduled next. That stale wake keeps its time: nothing
        // fires until it, and then it fires the new list's due probes.
        let b = ServerId(11);
        let poll = first_poll(b);
        let [w1, w2, stale] = first_wakes(b);
        let interval = SimDuration(w2.since(poll).as_micros() / 2);
        assert!(
            poll + interval + interval == w2 && w1 < poll + interval && stale < w2 + interval,
            "agent 11's phases no longer give a wake-first tie"
        );
        let mut o = with_poll_interval(interval);
        o.run_until(poll + interval);
        o.regenerate_pinglists(GeneratorConfig {
            payload_probes: true,
            ..GeneratorConfig::default()
        });
        let e = events_through(&mut o, before(w2));
        let probed = o.agent(b).probes_observed();
        assert_eq!(events_through(&mut o, w2) - e, 2, "wake, then poll");
        assert!(o.agent(b).probes_observed() > probed, "the wake ran first");
        assert_eq!(o.agent(b).generation(), 2);
        let probed = o.agent(b).probes_observed();
        let due = o.agent(b).next_wakeup().expect("a schedule");
        assert!(due < stale, "the new list is due before the stale wake");
        let e = events_through(&mut o, before(stale));
        assert_eq!(o.agent(b).probes_observed(), probed, "nothing fired early");
        assert_eq!(events_through(&mut o, stale) - e, 1, "the stale wake");
        assert!(
            o.agent(b).probes_observed() > probed,
            "it fired the due probes"
        );
    }

    #[test]
    fn a_powered_off_agent_stops_on_one_wake() {
        // Agent 3 with the poll-then-wake tie of the test above, its podset
        // powered off after its second wake: its third wake finds no power
        // and stops the agent, once, and no wake follows.
        let a = ServerId(3);
        let [w1, w2, w3] = first_wakes(a);
        let interval = w1.since(first_poll(a));
        assert!(
            (w3.since(first_poll(a)).as_micros() % interval.as_micros()) != 0,
            "agent 3's third wake lands on a poll"
        );
        let mut config = OrchestratorConfig::default();
        config.agent.controller_poll_interval = interval;
        let mut o = small_orchestrator_with(config);
        o.run_until(w2);
        let podset = o.net().topology().server(a).podset;
        o.net_mut()
            .faults_mut()
            .set_podset_down(podset, SimTime(w2.0 + 1), None);
        o.run_until(SimTime(w3.0 - 1));
        let (sh, idx) = o.shard_of[a.index()];
        let wake = |o: &Orchestrator| o.shards[sh as usize].wakes[idx as usize];
        assert_eq!(wake(&o).at, w3, "one chain pending");
        let e = events_run(&o);
        let probed = o.agent(a).probes_observed();
        o.run_until(w3);
        assert_eq!(events_run(&o) - e, 1, "one wake at the power-off instant");
        assert!(o.agent(a).is_stopped(), "the guard stopped the agent");
        assert_eq!(o.agent(a).next_wakeup(), None);
        assert_eq!(
            o.agent(a).probes_observed(),
            probed,
            "no probe without power"
        );
        assert_eq!(wake(&o), NO_WAKE);
    }
}
