//! The end-to-end orchestrator: a sharded discrete-event engine.
//!
//! Builds a full Pingmesh deployment over a simulated network and drives
//! it at paper scale. The fleet is partitioned by **podset** into shards,
//! each owning its own event queue and [`AgentFleet`] (struct-of-arrays
//! hot state); shards advance sim-time in parallel between **tick
//! barriers**:
//!
//! * every server's **agent** polls the controller VIP, launches probes
//!   at its scheduled times, buffers results and uploads them with
//!   retry-then-discard semantics — all inside its shard;
//! * at each barrier the shards' side effects are merged in canonical
//!   order: deferred store uploads sorted by `(time, server)`, switch-
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
//! time) — so a probe's outcome is independent of execution order. Every
//! remaining cross-shard effect (uploads, counter deltas, probe counts)
//! is either merged in a canonical sort order or commutative. Epoch
//! boundaries line up with the global events (PA, jobs) plus a
//! `BARRIER_INTERVAL` heartbeat, none of which depend on the shard
//! layout. `shards = 1` *is* the serial engine — same code path, no
//! thread spawn.

use crate::mitigation::{self, MitDevice, VERIFY_DST_PORT};
use crate::repair::RepairService;
use crate::watchdog::detect_podset_power_down;
use pingmesh_agent::{AgentConfig, AgentFleet, AgentView, ControllerPollOutcome};
use pingmesh_controller::{
    ControllerCluster, Decision, FindingKind, GeneratorConfig, MitigationConfig, MitigationEngine,
    PinglistGenerator, VerifyOutcome,
};
use pingmesh_dsa::jobs::{JobKind, JobManager, Pipeline};
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_dsa::{
    EscalationFinding, ExpectedPairs, LatencyPattern, PerfCounterAggregator, SilentDropFinding,
};
use pingmesh_netsim::net::CounterDelta;
use pingmesh_netsim::{tcp_traceroute, DcProfile, EventQueue, NetState, SimNet, TracerouteReport};
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
    /// Whether black-hole reload candidates are handed to the repair
    /// service (§5.1: ToR reloads under its daily budget). Nothing else.
    pub auto_repair: bool,
    /// Whether findings drive the closed-loop mitigation engine (drain →
    /// verify → un-drain): silent-drop and escalation suspects leave
    /// ECMP, a dark podset leaves the pinglists. Set both flags off to
    /// observe raw patterns with nothing cleaning up.
    pub auto_mitigate: bool,
    /// Mitigation engine tunables (drain budget, soak, cooldown).
    pub mitigation: MitigationConfig,
    /// Event-queue shards. Podsets are distributed round-robin over
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
            auto_repair: true,
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

/// Shard-local events carry the agent's fleet index (dense per shard),
/// not the global server id — the hot loop never hashes or searches.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Poll(u32),
    Wake(u32),
}

/// A deferred store upload: decided (and agent-side accounted) at wake
/// time inside a shard, applied to the store at the barrier in canonical
/// `(time, server)` order.
struct DeferredUpload {
    time: SimTime,
    server: ServerId,
    fleet_idx: u32,
    dc: DcId,
    batch: Vec<ProbeRecord>,
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

/// One podset shard: its event queue, its agents, and the epoch's
/// buffered side effects (merged and drained at each barrier).
struct Shard {
    queue: EventQueue<Ev>,
    fleet: AgentFleet,
    uploads: Vec<DeferredUpload>,
    counter_delta: CounterDelta,
    probes_run: u64,
    timeouts: u64,
    rtts: Vec<SimDuration>,
}

impl Shard {
    fn new(topo: Arc<Topology>, agent_config: AgentConfig) -> Self {
        Self {
            queue: EventQueue::new(),
            fleet: AgentFleet::new(topo, agent_config),
            uploads: Vec::new(),
            counter_delta: CounterDelta::new(),
            probes_run: 0,
            timeouts: 0,
            rtts: Vec::new(),
        }
    }

    /// Runs every shard event with `time ≤ t_end`; returns the number of
    /// events processed.
    fn run_epoch(&mut self, t_end: SimTime, ctx: &EpochCtx<'_>) -> u64 {
        let mut processed = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > t_end {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            match ev.event {
                Ev::Poll(i) => self.handle_poll(ev.time, i, ctx),
                Ev::Wake(i) => self.handle_wake(ev.time, i, ctx),
            }
            processed += 1;
        }
        processed
    }

    fn handle_poll(&mut self, now: SimTime, i: u32, ctx: &EpochCtx<'_>) {
        self.queue.schedule(now + ctx.poll_interval, Ev::Poll(i));
        let idx = i as usize;
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
        // Start a wake chain when a schedule (re)appeared.
        if let Some(t) = self.fleet.next_wakeup(idx) {
            if !had_schedule || t <= now {
                self.queue.schedule(t.max(now), Ev::Wake(i));
            }
        }
    }

    fn handle_wake(&mut self, now: SimTime, i: u32, ctx: &EpochCtx<'_>) {
        let idx = i as usize;
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
            let dc = ctx.topo.server(s).dc;
            if let Some(batch) = self.fleet.begin_upload(idx) {
                pingmesh_obs::trace::on_upload_batch(&batch, Some(now));
                if ctx.store_outages.is_up(now) {
                    let bytes: u64 = batch.iter().map(|r| r.wire_size() as u64).sum();
                    self.fleet.note_uploaded(idx, bytes);
                    self.fleet.on_upload_result(idx, true);
                    self.uploads.push(DeferredUpload {
                        time: now,
                        server: s,
                        fleet_idx: i,
                        dc,
                        batch,
                    });
                } else {
                    // Every synchronous retry hits the same downed store:
                    // spin the bookkeeping until retries exhaust.
                    while self.fleet.on_upload_result(idx, false) {}
                    self.fleet.recycle_batch(idx, batch);
                }
            }
        }
        if let Some(t) = self.fleet.next_wakeup(idx) {
            self.queue.schedule(t.max(now), Ev::Wake(i));
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

        let generator = PinglistGenerator::new(config.generator.clone());
        let mut cluster = ControllerCluster::new(config.controller_replicas);
        let generation = 1;
        let set = generator.generate_all(&topo, generation);
        // Provenance + quality: arm sampled traces and derive the pod
        // pairs this generation is expected to report, while the full
        // generation is still in hand.
        pingmesh_obs::trace::arm_from_pinglists(&set.lists, Some(SimTime::ZERO));
        let expected = Arc::new(ExpectedPairs::from_pinglists(&topo, &set.lists));
        cluster.set_pinglists(set);

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
        let mut initial_polls: Vec<Vec<(SimTime, Ev)>> = vec![Vec::new(); nshards];
        for (i, s) in topo.servers().enumerate() {
            let sh = topo.server(s).podset.index() % nshards;
            let idx = shards[sh].fleet.push_server(s) as u32;
            shard_of[s.index()] = (sh as u32, idx);
            let offset = (i as u64 * 60_000_000) / n;
            initial_polls[sh].push((SimTime(offset), Ev::Poll(idx)));
        }
        for (sh, polls) in shards.iter_mut().zip(initial_polls) {
            sh.queue.schedule_batch(polls);
        }

        let mut pipeline = Pipeline::new(topo.clone(), services, CosmosStore::with_defaults());
        pipeline.set_expected_pairs(expected);
        let jobman = JobManager::new();
        let next_pa = SimTime::ZERO + PA_INTERVAL;

        let mitigation = MitigationEngine::new(config.mitigation);
        Self {
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
            generation,
            now: SimTime::ZERO,
            next_pa,
        }
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

    /// The repair service (reload / isolation logs).
    pub fn repair(&self) -> &RepairService {
        &self.repair
    }

    /// The mitigation engine (drain states, transition log, counters).
    pub fn mitigation(&self) -> &MitigationEngine<MitDevice> {
        &self.mitigation
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

    /// Number of event-queue shards actually in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The §4.3 troubleshooting drill-down over a stored window, scoped
    /// by `filter`. Reads borrowed extent slices — no record is copied —
    /// so an on-call investigation doesn't perturb the system it is
    /// diagnosing.
    pub fn investigate_window(
        &self,
        from: SimTime,
        to: SimTime,
        max_flows: usize,
        filter: impl Fn(&pingmesh_types::ProbeRecord) -> bool,
    ) -> pingmesh_dsa::Investigation {
        let chunks = self.pipeline.store.scan_all_window_chunks(from, to);
        pingmesh_dsa::investigate_chunks(&chunks, self.net.topology(), max_flows, filter)
    }

    /// Regenerates pinglists (e.g. after a topology/config change) and
    /// installs them on the controller cluster. Agents pick the new
    /// generation up at their next poll — the controller never pushes.
    pub fn regenerate_pinglists(&mut self, generator_config: GeneratorConfig) {
        self.generation += 1;
        self.config.generator = generator_config.clone();
        let generator = PinglistGenerator::new(generator_config);
        let mut set = generator.generate_all(self.net.topology(), self.generation);
        // Drained podsets (power-down mitigation) are cut out of the mesh:
        // their servers get empty lists, and nobody else wastes probes on
        // them — exactly the manual pinglist surgery the paper's operators
        // did, automated. VIP entries stay (the VIP maps around the dark
        // DIPs or reports the outage itself).
        if !self.excluded_podsets.is_empty() {
            let topo = self.net.topology();
            for list in &mut set.lists {
                if self
                    .excluded_podsets
                    .contains(&topo.server(list.server).podset)
                {
                    list.entries.clear();
                    continue;
                }
                list.entries.retain(|e| match e.target {
                    PingTarget::Server { id, .. } => {
                        !self.excluded_podsets.contains(&topo.server(id).podset)
                    }
                    PingTarget::Vip { .. } => true,
                });
            }
        }
        pingmesh_obs::trace::arm_from_pinglists(&set.lists, Some(self.now));
        self.pipeline
            .set_expected_pairs(Arc::new(ExpectedPairs::from_pinglists(
                self.net.topology(),
                &set.lists,
            )));
        self.cluster.set_pinglists(set);
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
                "queue_depth" => self.shards.iter().map(|s| s.queue.len() as u64).sum::<u64>(),
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
        uploads.sort_by_key(|u| (u.time, u.server));
        for u in uploads {
            let ok = self
                .pipeline
                .store
                .append(StreamName { dc: u.dc }, &u.batch, u.time);
            debug_assert!(ok, "the simulator's store is in-memory: it never refuses");
            let (sh, _) = self.shard_of[u.server.index()];
            self.shards[sh as usize]
                .fleet
                .recycle_batch(u.fleet_idx as usize, u.batch);
        }
        // Switch counters: per-shard deltas, summed (commutative).
        for sh in &mut self.shards {
            self.net.merge_counters(&sh.counter_delta);
            sh.counter_delta.clear();
        }
        // Probe + queue metrics: one flush per shard per barrier.
        for sh in &mut self.shards {
            self.outputs.probes_run += sh.probes_run;
            self.net
                .flush_probe_metrics(sh.probes_run, sh.timeouts, &sh.rtts);
            sh.probes_run = 0;
            sh.timeouts = 0;
            sh.rtts.clear();
            sh.queue.flush_metrics();
        }
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
                            sh.fleet.probes_observed(i)
                                - sh.fleet.unresolved_probes(i)
                                - sh.fleet.buffered_records(i)
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
                    if self.config.auto_repair {
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
                    .merged_window_aggregate(tick.window_start, tick.window_end);
                let topo = self.net.topology().clone();
                for (ps, conf) in detect_podset_power_down(&agg, &topo) {
                    self.report_podset(ps, conf, now);
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

    /// Routes a switch finding through the mitigation engine; on a Drain
    /// decision the switch leaves ECMP via the route tables' exclusion
    /// support (the same actuator the §5.2 RMA path uses).
    fn report_switch(&mut self, sw: SwitchId, kind: FindingKind, confidence: f64, now: SimTime) {
        let topo = self.net.topology().clone();
        let tier = mitigation::switch_tier_key(&topo, sw);
        let size = mitigation::switch_tier_size(&topo, sw);
        match self
            .mitigation
            .report(MitDevice::Switch(sw), tier, size, kind, confidence, now)
        {
            Decision::Drain | Decision::DrainAndEscalate => {
                self.repair.isolate_for_rma(&mut self.net, sw, now);
            }
            Decision::Rejected(_) => {}
        }
    }

    /// Routes a podset power-down finding through the engine; on Drain
    /// the podset is cut out of pinglist generation.
    fn report_podset(&mut self, ps: PodsetId, confidence: f64, now: SimTime) {
        let topo = self.net.topology().clone();
        let tier = mitigation::podset_tier_key(&topo, ps);
        let size = mitigation::podset_tier_size(&topo, ps);
        match self.mitigation.report(
            MitDevice::Podset(ps),
            tier,
            size,
            FindingKind::PodsetPowerDown,
            confidence,
            now,
        ) {
            Decision::Drain | Decision::DrainAndEscalate => {
                self.excluded_podsets.insert(ps);
                self.regenerate_pinglists(self.config.generator.clone());
            }
            Decision::Rejected(_) => {}
        }
    }

    /// A black-hole podset escalation: traceroute the blackholed pairs,
    /// pin the loss on a Leaf/Spine device, and hand it to the engine.
    fn mitigate_escalation(&mut self, esc: &EscalationFinding, now: SimTime) {
        if esc.suspect_pairs.is_empty() {
            return;
        }
        let mut merged = TracerouteReport::default();
        for (i, pair) in esc.suspect_pairs.iter().take(8).enumerate() {
            // Base ports 21_000+ keep the keyed RNG streams disjoint from
            // the silent-drop campaigns at 20_000+.
            let report = tcp_traceroute(
                &mut self.net,
                pair.src,
                pair.dst,
                64,
                100,
                21_000 + (i as u16) * 128,
                now,
            );
            merged.merge(&report);
        }
        // A type-2 black hole drops its flows deterministically, so the
        // guilty device's attributed loss is far above background noise.
        let candidate = merged
            .suspects(0.05, 100)
            .into_iter()
            .map(|(sw, _)| sw)
            .find(|sw| matches!(sw.tier, SwitchTier::Leaf | SwitchTier::Spine));
        if let Some(sw) = candidate {
            self.report_switch(sw, FindingKind::Blackhole, esc.confidence, now);
        }
        self.outputs.traceroutes.push((now, merged));
    }

    /// Runs confirmation probes for every drained device whose soak
    /// period has elapsed, and acts on the engine's verdicts.
    fn run_due_verifications(&mut self, now: SimTime) {
        for dev in self.mitigation.due_verifications(now) {
            match dev {
                MitDevice::Switch(sw) => self.verify_switch(sw, now),
                MitDevice::Podset(ps) => self.verify_podset(ps, now),
            }
        }
    }

    /// Proves (or fails to prove) a drained switch healthy: lift the
    /// exclusion, plan probes whose ECMP path traverses the device, fire
    /// them against live network state, and re-drain unless ≥90% succeed.
    fn verify_switch(&mut self, sw: SwitchId, now: SimTime) {
        let topo = self.net.topology().clone();
        // Lift the exclusion first: verification must exercise the paths
        // traffic would take with the device back in service.
        self.net.faults_mut().unisolate_switch(sw);
        let plan = {
            let net = &self.net;
            mitigation::plan_switch_verification(&topo, sw, 12, 512, |src, dst, port| {
                let tuple = FiveTuple::tcp(topo.ip_of(src), port, topo.ip_of(dst), VERIFY_DST_PORT);
                net.path_of(src, dst, &tuple).switches().collect::<Vec<_>>()
            })
        };
        let mut delta = CounterDelta::new();
        let mut ok = 0usize;
        for p in &plan {
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
        // Healthy needs real evidence: enough probes actually traversed
        // the device, and nearly all of them came back.
        let healthy = plan.len() >= 4 && ok * 10 >= plan.len() * 9;
        match self
            .mitigation
            .record_verification(MitDevice::Switch(sw), healthy, now)
        {
            VerifyOutcome::Undrain => {} // exclusion stays lifted
            VerifyOutcome::KeepDrained | VerifyOutcome::Escalated => {
                self.net.faults_mut().isolate_switch(sw);
            }
        }
    }

    /// Proves a powered-down podset live again by probing it from every
    /// other podset in its DC; on Undrain it rejoins pinglist generation.
    fn verify_podset(&mut self, ps: PodsetId, now: SimTime) {
        let topo = self.net.topology().clone();
        let plan = mitigation::plan_podset_verification(&topo, ps, 12);
        let mut delta = CounterDelta::new();
        let mut ok = 0usize;
        for p in &plan {
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
        let healthy = !plan.is_empty() && ok * 2 >= plan.len();
        if let VerifyOutcome::Undrain =
            self.mitigation
                .record_verification(MitDevice::Podset(ps), healthy, now)
        {
            self.excluded_podsets.remove(&ps);
            self.regenerate_pinglists(self.config.generator.clone());
        }
    }

    /// §5.2 in code: traceroute the worst pairs of an incident, rank
    /// switches by attributed loss, isolate the top one.
    fn localize_and_mitigate(&mut self, incident: &SilentDropFinding, now: SimTime) {
        if incident.suspect_pairs.is_empty() {
            return;
        }
        let mut merged = TracerouteReport::default();
        for (i, pair) in incident.suspect_pairs.iter().take(8).enumerate() {
            let report = tcp_traceroute(
                &mut self.net,
                pair.src,
                pair.dst,
                64,
                100,
                20_000 + (i as u16) * 128,
                now,
            );
            merged.merge(&report);
        }
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
                self.report_switch(sw, FindingKind::SilentDrop, confidence, now);
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
    fn window_investigation_reads_store_without_copying() {
        let mut o = small_orchestrator();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(25));
        let inv = o.investigate_window(SimTime::ZERO, o.now(), 8, |_| true);
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
}
