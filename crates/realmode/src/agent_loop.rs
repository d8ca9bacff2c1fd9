//! The real-socket agent: the tokio driver of the agent engine.
//!
//! Identical semantics to the simulated agent *because it is the same
//! engine*: a [`RealAgent`] owns a [`pingmesh_agent::AgentFleet`] of one
//! and only tells it what happened — so the §3.4.2 rules (sanitize every
//! served entry, fail closed after 3 consecutive controller failures or
//! an empty controller, bounded buffer, upload on size *or* age,
//! retry-then-discard), the per-entry probe cadence the pinglist carries
//! (the fleet's due rings) and the `pingmesh_agent_*` metrics are the ones
//! the simulator runs. What lives here is only what a driver is:
//!
//! * polling the controller VIP over HTTP and mapping the answer to a
//!   [`ControllerPollOutcome`];
//! * turning the probes the engine says are due into socket addresses
//!   and probing them, every probe on a fresh connection (the OS assigns
//!   the ephemeral port), bounded in flight;
//! * carrying upload batches to the collector, sleeping a jittered
//!   backoff between the retries the engine asks for;
//! * the `pingmesh_realmode_*` transport counters and the run loop.
//!
//! [`RealAgent::run`] is the always-on loop: it sleeps until the engine's
//! next wake or the next controller poll. [`RealAgent::probe_due`] probes
//! what is due now; demos and tests that want every entry probed now step
//! the schedule clock past the longest interval with [`RealAgent::skip`]
//! first. Records are stamped by the wall clock either way.

use crate::collector::upload_records_with;
use crate::directory::{PeerDirectory, PeerEndpoints};
use crate::vip::ControllerVip;
use pingmesh_agent::real::{http_ping, tcp_ping};
use pingmesh_agent::scheduler::DueProbe;
use pingmesh_agent::{AgentConfig, AgentFleet, AgentView, ControllerPollOutcome};
use pingmesh_topology::Topology;
use pingmesh_types::backoff::Backoff;
use pingmesh_types::{
    PingTarget, PingmeshError, ProbeKind, ProbeOutcome, ProbeRecord, ServerId, SimDuration, SimTime,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the agent turns a pinglist entry into a socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Addressing {
    /// Probe the entry's IP and port directly — production behaviour,
    /// where the pinglist's addresses are the peers' real addresses.
    #[default]
    Direct,
    /// Translate the peer's server id through a [`PeerDirectory`] —
    /// the localhost mode, where every simulated server shares one host
    /// and gets its own port pair.
    Directory,
}

/// Configuration of one real agent.
#[derive(Debug, Clone)]
pub struct RealAgentConfig {
    /// This agent's server identity.
    pub me: ServerId,
    /// The controller VIP: one or more replica addresses, round-robined
    /// with per-poll failover (paper §3.3.2's SLB, client-side).
    pub controller: ControllerVip,
    /// The collector address records are uploaded to.
    pub collector: SocketAddr,
    /// Per-phase deadline for every control-plane call (connect, request
    /// write, response read — against controller replicas and collector).
    pub call_deadline: Duration,
    /// Peer address resolution mode.
    pub addressing: Addressing,
}

/// Per-probe timeout.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// Max probes in flight at once (the paper's agent spreads load across
/// cores; we bound concurrency instead).
const MAX_INFLIGHT: usize = 32;
/// Upload when this many records are buffered (or the oldest ages out):
/// the engine's `upload_batch_records` for a real agent.
const UPLOAD_BATCH: usize = 500;

impl RealAgentConfig {
    /// Sensible defaults for a localhost deployment with an unreplicated
    /// controller.
    pub fn new(me: ServerId, controller: SocketAddr, collector: SocketAddr) -> Self {
        Self::with_controllers(me, vec![controller], collector)
    }

    /// Defaults with several controller replicas behind one logical VIP.
    pub fn with_controllers(
        me: ServerId,
        controllers: Vec<SocketAddr>,
        collector: SocketAddr,
    ) -> Self {
        Self {
            me,
            controller: ControllerVip::new(controllers),
            collector,
            call_deadline: Duration::from_secs(5),
            addressing: Addressing::Directory,
        }
    }
}

/// The real-socket agent.
pub struct RealAgent {
    config: RealAgentConfig,
    directory: PeerDirectory,
    /// The engine: one agent, fleet index [`ME`].
    fleet: AgentFleet,
    epoch: Instant,
    /// How far the schedule clock runs ahead of the wall clock: zero for
    /// a daemon, stepped by [`RealAgent::skip`].
    skipped: SimDuration,
}

/// This agent's index in its own one-agent fleet.
const ME: usize = 0;

impl RealAgent {
    /// Creates an idle agent.
    pub fn new(config: RealAgentConfig, topo: Arc<Topology>, directory: PeerDirectory) -> Self {
        let mut fleet = AgentFleet::new(
            topo,
            AgentConfig {
                upload_batch_records: UPLOAD_BATCH,
                ..AgentConfig::default()
            },
        );
        fleet.push_server(config.me);
        Self {
            config,
            directory,
            fleet,
            epoch: Instant::now(),
            skipped: SimDuration::ZERO,
        }
    }

    /// This agent's identity.
    pub fn server(&self) -> ServerId {
        self.config.me
    }

    /// Mutable access to the configuration — drills retarget controllers
    /// and tighten deadlines on a live agent.
    pub fn config_mut(&mut self) -> &mut RealAgentConfig {
        &mut self.config
    }

    /// Read-only view of the engine state — the same accessor surface the
    /// simulator's watchdog and oracles read through `orch.agent(s)`.
    pub fn view(&self) -> AgentView<'_> {
        self.fleet.view(ME)
    }

    /// Whether the agent is fail-closed.
    pub fn is_stopped(&self) -> bool {
        self.view().is_stopped()
    }

    /// The jittered retry/poll backoff. Seeded from the server id, so
    /// agents of a fleet don't retry in lockstep, while each retries on
    /// the same schedule from run to run.
    fn backoff(&self) -> Backoff {
        Backoff::control_plane(0x5EED ^ u64::from(self.config.me.0))
    }

    /// Wall-clock microseconds since this agent started: the record
    /// clock, which stamps results and ages the upload buffer.
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// The schedule clock: the record clock plus every [`Self::skip`].
    /// Pinglists are installed and probes fall due by it.
    fn schedule_now(&self) -> SimTime {
        self.now() + self.skipped
    }

    /// Steps the schedule clock forward by `d` without touching the
    /// record clock. Stepping past the longest installed interval makes
    /// every entry due, so the next [`Self::probe_due`] probes each once.
    pub fn skip(&mut self, d: Duration) {
        self.skipped += SimDuration::from_micros(d.as_micros() as u64);
    }

    /// Polls the controller VIP once and hands the engine the outcome;
    /// returns whether the controller answered at all.
    ///
    /// The engine applies the fail-closed rules, including the
    /// stale-pinglist grace: a failed poll before the §3.4.2 threshold
    /// keeps the installed pinglist — the agent probes stale rather than
    /// go dark during a short controller blip. Only crossing the
    /// threshold (or an explicit "no pinglist" answer) drops the peers.
    pub async fn poll_controller(&mut self) -> bool {
        let was_stopped = self.is_stopped();
        let outcome = match self
            .config
            .controller
            .fetch_pinglist(self.config.me, self.config.call_deadline)
            .await
        {
            Ok(Some(pl)) => ControllerPollOutcome::Pinglist(pl),
            Ok(None) => ControllerPollOutcome::NoPinglist,
            Err(_) => ControllerPollOutcome::Unreachable,
        };
        let answered = !matches!(outcome, ControllerPollOutcome::Unreachable);
        self.fleet
            .on_controller_poll(ME, outcome, self.schedule_now());
        match (was_stopped, self.is_stopped()) {
            (false, true) => {
                pingmesh_obs::registry()
                    .counter("pingmesh_realmode_fail_closed_transitions_total")
                    .inc();
                pingmesh_obs::emit!(Warn, "realmode.agent", "fail_closed",
                    "server" => self.config.me.0 as u64);
            }
            (true, false) => {
                pingmesh_obs::registry()
                    .counter("pingmesh_realmode_resumes_total")
                    .inc();
                pingmesh_obs::emit!(Info, "realmode.agent", "resumed",
                    "server" => self.config.me.0 as u64);
            }
            _ => {}
        }
        answered
    }

    /// Probes what the engine says is due now, concurrently (bounded),
    /// feeding outcomes back to it. Returns the number of probes launched
    /// — zero while fail-closed, since stopping clears the schedule.
    pub async fn probe_due(&mut self) -> usize {
        let mut due = self.fleet.due_probes(ME, self.schedule_now());
        let mut inflight = tokio::task::JoinSet::new();
        let mut sent = 0usize;
        for mut probe in due.drain(..) {
            // A VIP needs the production load balancer to pick a backend,
            // and a peer the directory does not list has no address: both
            // are counted as unresolved probes (`unresolved_probes`), as
            // the simulator counts a VIP with no backend, and leave no
            // record.
            let PingTarget::Server { id: peer, ip } = probe.entry.target else {
                self.skip_unresolved(&probe);
                continue;
            };
            let endpoints = match self.config.addressing {
                Addressing::Directory => match self.directory.lookup(peer) {
                    Some(e) => e,
                    None => {
                        self.skip_unresolved(&probe);
                        continue;
                    }
                },
                Addressing::Direct => PeerEndpoints {
                    // Production addressing: the pinglist's IP and port
                    // are the peer agent's actual endpoints; HTTP probes
                    // use the conventional HTTP port on the same host.
                    echo: SocketAddr::from((ip, probe.entry.port)),
                    http: SocketAddr::from((ip, 80)),
                },
            };
            if inflight.len() >= MAX_INFLIGHT {
                if let Some(done) = inflight.join_next().await {
                    self.absorb(done.expect("probe task panicked"));
                }
            }
            sent += 1;
            // The OS picks the ephemeral port of a real connection.
            probe.src_port = 0;
            inflight.spawn(async move {
                let rtt = match probe.entry.kind {
                    ProbeKind::TcpSyn => tcp_ping(endpoints.echo, None, PROBE_TIMEOUT)
                        .await
                        .map(|r| r.connect_rtt)
                        .ok(),
                    ProbeKind::TcpPayload(n) => {
                        let payload = vec![0xA5u8; n as usize];
                        tcp_ping(endpoints.echo, Some(&payload), PROBE_TIMEOUT)
                            .await
                            .ok()
                            .and_then(|r| r.payload_rtt)
                    }
                    ProbeKind::Http => http_ping(endpoints.http, PROBE_TIMEOUT).await.ok(),
                };
                (probe, peer, rtt)
            });
        }
        self.fleet.recycle_due(due);
        while let Some(done) = inflight.join_next().await {
            self.absorb(done.expect("probe task panicked"));
        }
        self.fleet.flush_metrics();
        sent
    }

    fn skip_unresolved(&mut self, probe: &DueProbe) {
        let now = self.now();
        self.fleet
            .record_outcome(ME, probe, None, ProbeOutcome::Timeout, now);
    }

    fn absorb(&mut self, (due, peer, rtt): (DueProbe, ServerId, Option<Duration>)) {
        let outcome = match rtt {
            Some(d) => ProbeOutcome::Success {
                rtt: SimDuration::from_micros(d.as_micros().max(1) as u64),
            },
            None => ProbeOutcome::Timeout,
        };
        self.fleet
            .record_outcome(ME, &due, Some(peer), outcome, self.now());
    }

    /// Uploads the buffer when the engine says an upload is due (batch
    /// size reached, or the oldest record aged out); `force` flushes
    /// regardless. The engine decides each retry and the final discard
    /// (§3.4.2); this driver sleeps a jittered backoff in between.
    pub async fn flush(&mut self, force: bool) {
        if !force && !self.fleet.upload_due(ME, self.now()) {
            return;
        }
        let Some(batch) = self.fleet.begin_upload(ME) else {
            return;
        };
        // The wire carries records: expand the batch once, for every retry.
        let records: Vec<ProbeRecord> = batch.records(self.fleet.topology()).collect();
        pingmesh_obs::trace::on_upload_batch(&records, Some(self.now()));
        let registry = pingmesh_obs::registry();
        let mut backoff = self.backoff();
        loop {
            let result =
                upload_records_with(self.config.collector, &records, self.config.call_deadline)
                    .await;
            let ok = result.is_ok();
            if ok {
                let bytes = (records.len() * ProbeRecord::WIRE_SIZE) as u64;
                self.fleet.note_uploaded(ME, bytes);
            }
            if !self.fleet.on_upload_result(ME, ok) {
                if !ok {
                    registry
                        .counter("pingmesh_realmode_discarded_records_total")
                        .add(records.len() as u64);
                }
                break;
            }
            registry.counter("pingmesh_realmode_retries_total").inc();
            if matches!(result, Err(PingmeshError::Timeout(_))) {
                registry.counter("pingmesh_realmode_timeouts_total").inc();
            }
            tokio::time::sleep(backoff.next_delay()).await;
        }
        self.fleet.recycle_batch(ME, batch);
    }

    /// The always-on loop. Each pass polls the controller when a poll is
    /// due, probes what the engine says is due and uploads if an upload is
    /// due; then it sleeps until the engine's next wake or the next poll,
    /// whichever is earlier. Shutdown is looked at between passes, so the
    /// first pass always runs; after it the buffer is flushed.
    pub async fn run(
        mut self,
        poll_interval: Duration,
        mut shutdown: tokio::sync::watch::Receiver<bool>,
    ) -> Self {
        let mut next_poll = Instant::now();
        // While the controller is failing, re-poll on a capped jittered
        // backoff instead of the full poll interval — the agent recovers
        // quickly after an outage without hammering a struggling VIP.
        let mut poll_backoff = self.backoff();
        loop {
            if Instant::now() >= next_poll {
                next_poll = if self.poll_controller().await {
                    poll_backoff.reset();
                    Instant::now() + poll_interval
                } else {
                    Instant::now() + poll_backoff.next_delay()
                };
            }
            self.probe_due().await;
            self.flush(false).await;
            let mut nap = next_poll.saturating_duration_since(Instant::now());
            if let Some(wake) = self.view().next_wakeup() {
                nap = nap.min(Duration::from_micros(
                    (wake - self.schedule_now()).as_micros(),
                ));
            }
            tokio::select! {
                _ = tokio::time::sleep(nap) => {}
                _ = shutdown.changed() => {}
            }
            if *shutdown.borrow() {
                break;
            }
        }
        self.flush(true).await;
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::LocalCluster;
    use pingmesh_controller::GeneratorConfig;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::constants::UPLOAD_RETRIES;

    /// A schedule step longer than any interval the default generator
    /// assigns (payload and low-QoS entries included, 120 s at most):
    /// after `skip(STEP)` every installed entry is due once.
    pub(crate) const STEP: Duration = Duration::from_secs(180);

    #[tokio::test]
    async fn full_loop_fetch_probe_upload() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(0));
        // The engine's fleet-wide metrics are process-global and other
        // tests move them too, so each must move by *at least* this
        // agent's counts.
        let registry = pingmesh_obs::registry();
        let probes_metric = registry.counter("pingmesh_agent_probes_sent_total");
        let uploads_metric = registry.counter("pingmesh_agent_uploads_started_total");
        let batch_metric = registry.histogram("pingmesh_agent_upload_batch_size");
        let (probes0, uploads0, batches0) = (
            probes_metric.get(),
            uploads_metric.get(),
            batch_metric.snapshot().count(),
        );
        agent.poll_controller().await;
        assert!(!agent.is_stopped());
        assert!(agent.view().peer_count() > 0);
        agent.skip(STEP);
        let sent = agent.probe_due().await;
        assert!(sent > 0, "must probe peers");
        assert_eq!(agent.view().counters().probes_sent as usize, sent);
        assert!(agent.view().counters().probes_succeeded > 0);
        assert_eq!(
            agent.view().probes_observed() - agent.view().unresolved_probes(),
            sent as u64
        );
        agent.flush(true).await;
        let stats = cluster.collector().stats();
        assert_eq!(stats.records, sent as u64);
        assert!(probes_metric.get() >= probes0 + sent as u64);
        assert!(uploads_metric.get() > uploads0);
        assert!(batch_metric.snapshot().count() > batches0);
    }

    /// A VIP entry needs the production load balancer to pick a backend:
    /// every one that falls due is counted as an unresolved probe, as the
    /// simulator counts a VIP with no backend, and leaves no record.
    #[tokio::test]
    async fn due_vip_entries_are_counted_as_unresolved() {
        use pingmesh_types::VipId;
        use std::net::Ipv4Addr;
        let vip_targets = vec![
            (VipId(0), Ipv4Addr::new(172, 16, 0, 1)),
            (VipId(1), Ipv4Addr::new(172, 16, 0, 2)),
        ];
        let vips = vip_targets.len() as u64;
        let config = GeneratorConfig {
            vip_targets,
            ..GeneratorConfig::default()
        };
        let cluster = LocalCluster::start(TopologySpec::single_tiny(), config).await;
        // Server 0 is an inter-DC prober, so its list carries the VIPs.
        let mut agent = cluster.agent(ServerId(0));
        agent.poll_controller().await;
        for round in 1..=2 {
            agent.skip(STEP);
            let sent = agent.probe_due().await as u64;
            let view = agent.view();
            assert_eq!(view.unresolved_probes(), round * vips, "round {round}");
            assert_eq!(view.probes_observed(), view.counters().probes_sent);
            agent.flush(true).await;
            let uploaded = cluster.collector().stats().records;
            assert_eq!(uploaded, agent.view().probes_observed() - round * vips);
            assert!(sent > 0);
        }
    }

    #[tokio::test]
    async fn flush_uploads_on_age_below_the_batch_size() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(5));
        agent.poll_controller().await;
        agent.skip(STEP);
        let sent = agent.probe_due().await as u64;
        assert!(sent > 0 && sent < UPLOAD_BATCH as u64);
        // Fresh records below the batch size: not due.
        agent.flush(false).await;
        assert_eq!(agent.view().buffered_records(), sent);
        assert_eq!(cluster.collector().stats().records, 0);
        // The engine's age trigger, read at a crafted "now"…
        let max_age = AgentConfig::default().upload_max_age;
        assert!(agent.fleet.upload_due(ME, agent.now() + max_age));
        // …and through `flush(false)`, by ageing the agent instead of
        // sleeping ten minutes.
        agent.epoch -= Duration::from_micros(max_age.as_micros());
        agent.flush(false).await;
        assert_eq!(agent.view().buffered_records(), 0);
        assert_eq!(cluster.collector().stats().records, sent);
    }

    #[tokio::test]
    async fn controller_loss_fail_closes_after_three_polls() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(1));
        agent.poll_controller().await;
        assert!(agent.view().peer_count() > 0);
        // Point the agent at a dead controller.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        agent.config.controller = ControllerVip::single(dead);
        agent.poll_controller().await;
        agent.poll_controller().await;
        // Stale-pinglist grace: below the threshold the cached list is
        // kept and the agent still probes.
        assert!(!agent.is_stopped());
        assert!(agent.view().peer_count() > 0);
        agent.poll_controller().await;
        assert!(agent.is_stopped());
        assert_eq!(agent.view().peer_count(), 0);
        agent.skip(STEP);
        assert_eq!(agent.probe_due().await, 0);
    }

    #[tokio::test]
    async fn fail_closed_agent_resumes_on_valid_pinglist() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(4));
        let live = agent.config.controller.clone();
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        agent.config.controller = ControllerVip::single(dead);
        for _ in 0..3 {
            agent.poll_controller().await;
        }
        assert!(agent.is_stopped());
        let resumes_before = pingmesh_obs::registry()
            .counter("pingmesh_realmode_resumes_total")
            .get();
        // Controller comes back: one successful poll re-arms the guard
        // (failure budget back to zero) and probing resumes.
        agent.config.controller = live;
        agent.poll_controller().await;
        assert!(!agent.is_stopped());
        assert!(agent.view().peer_count() > 0);
        agent.skip(STEP);
        assert!(agent.probe_due().await > 0);
        let resumes_after = pingmesh_obs::registry()
            .counter("pingmesh_realmode_resumes_total")
            .get();
        assert_eq!(resumes_after, resumes_before + 1);
        // The full 3-failure budget is re-armed: one more failed poll
        // does not stop the agent.
        agent.config.controller = ControllerVip::single(dead);
        assert!(!agent.poll_controller().await);
        assert!(!agent.is_stopped());
        assert!(agent.view().peer_count() > 0);
    }

    #[tokio::test]
    async fn agent_fails_over_across_controller_replicas() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut config = RealAgentConfig::with_controllers(
            ServerId(6),
            vec![dead, cluster.controller_addr()],
            cluster.collector_addr(),
        );
        config.call_deadline = Duration::from_secs(2);
        let mut agent = RealAgent::new(
            config,
            cluster.topology().clone(),
            cluster.directory().clone(),
        );
        // Every poll succeeds despite the dead replica in rotation.
        for _ in 0..3 {
            agent.poll_controller().await;
            assert!(!agent.is_stopped());
            assert!(agent.view().peer_count() > 0);
        }
    }

    #[tokio::test]
    async fn run_loop_probes_until_shutdown_and_flushes() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(3));
        agent.poll_controller().await;
        agent.skip(STEP);
        let entries = agent.view().peer_count() as u64;
        let (tx, rx) = tokio::sync::watch::channel(false);
        // Shutdown is already requested: the loop makes its one pass
        // (poll, probe what is due, upload if due) and stops.
        tx.send(true).unwrap();
        let agent = agent.run(Duration::from_secs(3600), rx).await;
        // Every entry was due once; the pass's poll served the same
        // generation, so nothing was reinstalled or probed twice.
        assert_eq!(agent.view().counters().probes_sent, entries);
        // The final flush delivered everything.
        assert_eq!(agent.view().buffered_records(), 0);
        assert_eq!(cluster.collector().stats().records, entries);
    }

    #[tokio::test]
    async fn probes_follow_the_fleet_schedule_step_for_step() {
        let generator = GeneratorConfig {
            payload_probes: true,
            ..GeneratorConfig::default()
        };
        let cluster = LocalCluster::start(TopologySpec::single_tiny(), generator).await;
        let me = ServerId(5);
        let pl = pingmesh_controller::fetch_pinglist(cluster.controller_addr(), me)
            .await
            .unwrap()
            .unwrap();
        let mut agent = cluster.agent(me);
        agent.poll_controller().await;
        let mut fleet = AgentFleet::new(cluster.topology().clone(), AgentConfig::default());
        fleet.push_server(me);
        let mut t = agent.schedule_now();
        fleet.on_controller_poll(0, ControllerPollOutcome::Pinglist(pl.clone()), t);

        // Initial phases fall anywhere in an interval, so the first step
        // is a full one: it fires every entry on both sides whatever the
        // microseconds between the two installs. From then on each due
        // time is a step time plus an interval on both sides.
        let steps: Vec<Duration> = std::iter::once(STEP)
            .chain([Duration::from_secs(10); 6])
            .chain([STEP])
            .collect();
        let mut fleet_launched = std::collections::HashMap::new();
        for (k, step) in steps.into_iter().enumerate() {
            agent.skip(step);
            let sent = agent.probe_due().await;
            agent.flush(true).await;
            t += SimDuration::from_micros(step.as_micros() as u64);
            let due = fleet.due_probes(0, t);
            assert_eq!(sent, due.len(), "step {k}: launch count");
            for p in &due {
                let PingTarget::Server { id, .. } = p.entry.target else {
                    unreachable!("no VIP targets configured")
                };
                *fleet_launched.entry((id, p.entry.kind)).or_insert(0) += 1;
            }
            // Cadence: after the full first step, an entry of interval I
            // fires on the 10 s steps whose offset I divides.
            if (1..=6).contains(&k) {
                let offset = SimDuration::from_secs(10 * k as u64);
                let expected = pl
                    .entries
                    .iter()
                    .filter(|e| offset.as_micros().is_multiple_of(e.interval.as_micros()))
                    .count();
                assert_eq!(due.len(), expected, "step {k}: entries due at +{offset}");
            } else {
                assert_eq!(due.len(), pl.entries.len(), "step {k}: every entry");
            }
            fleet.recycle_due(due);
            // The real side, read from what the collector stored.
            let mut stored = std::collections::HashMap::new();
            let store = cluster.collector().store().lock();
            for r in store
                .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
                .records()
            {
                assert_eq!(r.src, me);
                *stored.entry((r.dst, r.kind)).or_insert(0) += 1;
            }
            assert_eq!(stored, fleet_launched, "step {k}: (dst, kind) multiset");
        }
        // The pinglist has three cadences, so the steps above exercised
        // each: 10 s intra-pod, 30 s intra-pod payload and intra-DC,
        // 90 s intra-DC payload.
        let mut intervals: Vec<_> = pl.entries.iter().map(|e| e.interval).collect();
        intervals.sort_unstable();
        intervals.dedup();
        assert_eq!(
            intervals,
            [10, 30, 90].map(SimDuration::from_secs).to_vec(),
            "cadences of the tiny mesh's payload pinglist"
        );
    }

    #[tokio::test]
    async fn upload_outage_discards_after_retries() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(2));
        agent.poll_controller().await;
        agent.skip(STEP);
        agent.probe_due().await;
        cluster.collector().set_accepting(false);
        let retries_before = pingmesh_obs::registry()
            .counter("pingmesh_realmode_retries_total")
            .get();
        let t0 = Instant::now();
        agent.flush(true).await;
        assert!(
            agent.view().discarded_total() > 0,
            "retries exhausted must discard"
        );
        // Memory is bounded: the buffer is empty again.
        assert_eq!(agent.view().buffered_records(), 0);
        assert!(!agent.view().has_pending_upload());
        // Retries are spaced by jittered exponential backoff, not fired
        // back-to-back: 3 retries with a 50 ms base wait at least
        // 25 + 50 + 100 ms worst-jitter-low, so well over 100 ms total.
        let retries_after = pingmesh_obs::registry()
            .counter("pingmesh_realmode_retries_total")
            .get();
        assert_eq!(retries_after, retries_before + u64::from(UPLOAD_RETRIES));
        assert!(
            t0.elapsed() >= Duration::from_millis(100),
            "backoff must actually delay: {:?}",
            t0.elapsed()
        );
    }

    #[tokio::test]
    async fn flush_backoff_schedule_is_seed_deterministic() {
        // Two agents with the same seed produce the same retry delays.
        let a = Backoff::control_plane(42).next_delay();
        let b = Backoff::control_plane(42).next_delay();
        assert_eq!(a, b);
        let c = Backoff::control_plane(43).next_delay();
        // Different seeds *may* collide on one draw, but the full
        // 4-delay schedule must differ.
        let seq = |seed| {
            let mut bo = Backoff::control_plane(seed);
            (0..4).map(|_| bo.next_delay()).collect::<Vec<_>>()
        };
        assert_ne!(seq(42), seq(43), "{a:?} {b:?} {c:?}");
    }
}
