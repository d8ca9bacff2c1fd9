//! Real-socket deployment watchdog (paper §3.5).
//!
//! "All the components of Pingmesh have watchdogs to watch whether they
//! are running correctly or not." The simulator's
//! [`pingmesh_core::watchdog::check`] audits virtual state; [`RealWatchdog`] is
//! its real-socket twin: it probes the live control plane over actual
//! TCP — through whatever chaos proxies sit in front of it, so it sees
//! exactly what the agents see — and reports the same machine-readable
//! [`WatchdogFinding`]s.
//!
//! Checks performed per [`RealWatchdog::check`]:
//!
//! * every controller replica's `/health`, each bounded by the
//!   watchdog's own call deadline → [`ControllerClusterDown`] when none
//!   answers, [`NoPinglistsServed`] when replicas answer but serve no
//!   pinglist;
//! * agent engine state, read through the same
//!   [`pingmesh_agent::AgentView`] surface the simulator's watchdog reads:
//!   fail-closed agents → [`AgentsStopped`], pinglist entries the agents
//!   had to clamp since the previous check →
//!   [`ControllerViolatedSafetyLimits`], records discarded since the
//!   previous check → [`RecordsDiscarded`];
//! * collector ingest freshness: while agents are probing, the newest
//!   stored record must be younger than the store horizon on the
//!   collector's clock, as the simulator's watchdog reads its store →
//!   [`StaleStore`];
//! * data-quality SLOs: the watchdog feeds the collector the windowed
//!   completeness ledger (stored vs produced-minus-buffered since the
//!   previous check) and re-evaluates every installed SLO →
//!   [`SloDegraded`] for each one out of target;
//! * durable-store IO health: WAL write errors since the previous check
//!   and the fail-closed flag → [`StoreIoErrors`].
//!
//! Every finding increments
//! `pingmesh_realmode_watchdog_findings_total{class}`.
//!
//! [`SloDegraded`]: WatchdogFinding::SloDegraded
//!
//! [`ControllerClusterDown`]: WatchdogFinding::ControllerClusterDown
//! [`NoPinglistsServed`]: WatchdogFinding::NoPinglistsServed
//! [`AgentsStopped`]: WatchdogFinding::AgentsStopped
//! [`ControllerViolatedSafetyLimits`]: WatchdogFinding::ControllerViolatedSafetyLimits
//! [`RecordsDiscarded`]: WatchdogFinding::RecordsDiscarded
//! [`StaleStore`]: WatchdogFinding::StaleStore
//! [`StoreIoErrors`]: WatchdogFinding::StoreIoErrors

use crate::agent_loop::RealAgent;
use crate::cluster::LocalCluster;
use pingmesh_core::WatchdogFinding;
use pingmesh_types::{ServerId, SimDuration, SimTime};
use std::net::SocketAddr;
use std::time::Duration;

/// Watchdog over a live real-socket deployment. Stateful: the agent and
/// store tallies are reported as deltas between consecutive checks.
#[derive(Debug)]
pub struct RealWatchdog {
    /// While agents probe, the newest stored record must be younger.
    pub store_horizon: Duration,
    /// Per-phase deadline for the watchdog's own health probes.
    pub call_deadline: Duration,
    last_sanitized: u64,
    last_discarded: u64,
    last_stored: u64,
    last_deliverable: u64,
    last_io_errors: u64,
}

impl RealWatchdog {
    /// A watchdog with the given freshness horizon.
    pub fn new(store_horizon: Duration) -> Self {
        Self {
            store_horizon,
            call_deadline: Duration::from_secs(2),
            last_sanitized: 0,
            last_discarded: 0,
            last_stored: 0,
            last_deliverable: 0,
            last_io_errors: 0,
        }
    }

    /// Probes one replica's `/health` through its agent-facing address.
    async fn replica_healthy(&self, addr: SocketAddr) -> bool {
        let req = pingmesh_httpx::Request::get("/health");
        matches!(
            pingmesh_httpx::call(addr, &req, self.call_deadline).await,
            Ok(resp) if resp.status == 200
        )
    }

    /// Audits the deployment: controller replicas over the wire, agents
    /// and the collector through their local handles. Findings are also
    /// counted in the global metrics registry.
    pub async fn check(
        &mut self,
        cluster: &LocalCluster,
        agents: &[&RealAgent],
    ) -> Vec<WatchdogFinding> {
        let mut findings = Vec::new();

        // Controller health, as seen through the chaos proxies.
        let mut any_up = false;
        for &addr in cluster.controller_addrs() {
            if self.replica_healthy(addr).await {
                any_up = true;
                break;
            }
        }
        if !any_up {
            findings.push(WatchdogFinding::ControllerClusterDown);
        } else {
            // At least one replica answers; does it serve pinglists? A
            // probe for any known server id suffices — 503 means the
            // fleet stop switch is thrown.
            let probe = cluster.topology().servers().next().unwrap_or(ServerId(0));
            let served = pingmesh_controller::fetch_pinglist_with(
                cluster.controller_addr(),
                probe,
                self.call_deadline,
            )
            .await;
            if matches!(served, Ok(None)) {
                findings.push(WatchdogFinding::NoPinglistsServed);
            }
        }

        // Agent health.
        let views: Vec<_> = agents.iter().map(|a| a.view()).collect();
        let stopped = views.iter().filter(|v| v.is_stopped()).count();
        if stopped > 0 {
            findings.push(WatchdogFinding::AgentsStopped(stopped));
        }
        // The engine's sanitize and discard totals are cumulative; report
        // only what happened since the previous check, so a corrected
        // controller or a healed upload path clears its finding instead
        // of carrying the outage's tally forever.
        let sanitized: u64 = views.iter().map(|v| v.sanitized_entries()).sum();
        if sanitized > self.last_sanitized {
            findings.push(WatchdogFinding::ControllerViolatedSafetyLimits(
                sanitized - self.last_sanitized,
            ));
        }
        self.last_sanitized = sanitized;
        let discarded: u64 = views.iter().map(|v| v.discarded_total()).sum();
        if discarded > self.last_discarded {
            findings.push(WatchdogFinding::RecordsDiscarded(
                discarded - self.last_discarded,
            ));
        }
        self.last_discarded = discarded;

        // Report path: while anyone probes, the newest stored record must
        // be younger than the horizon. With nothing probing staleness is
        // expected: it is not reported on top of AgentsStopped. An empty
        // store is stale once the collector has been up a horizon, and
        // has no newest age.
        let collector = cluster.collector();
        let records = collector.stats().records;
        if stopped < agents.len() {
            let now = collector.now();
            let newest = collector.store().lock().newest_ts();
            let age = now.since(newest.unwrap_or(SimTime::ZERO));
            if age > SimDuration::from_micros(self.store_horizon.as_micros() as u64) {
                findings.push(WatchdogFinding::StaleStore {
                    newest_age: newest.map(|_| age),
                });
            }
        }

        // Completeness ledger: records that should have reached the store
        // since the previous check (produced minus still-buffered —
        // buffering is lag, not loss) versus records that actually did.
        // The collector owns the evaluation so its `/healthz` and `/slo`
        // endpoints and this watchdog agree by construction.
        let produced: u64 = views
            .iter()
            .map(|v| v.probes_observed() - v.unresolved_probes())
            .sum();
        let buffered: u64 = views.iter().map(|v| v.buffered_records()).sum();
        let deliverable = produced.saturating_sub(buffered);
        let stored_delta = records.saturating_sub(self.last_stored);
        let deliverable_delta = deliverable.saturating_sub(self.last_deliverable);
        cluster
            .collector()
            .set_completeness(stored_delta, deliverable_delta);
        self.last_stored = records;
        self.last_deliverable = deliverable;
        findings.extend(WatchdogFinding::degraded_slos(
            &cluster.collector().slo_statuses(),
        ));

        // Durable-store IO health: errors since the previous check, plus
        // the fail-closed flag (a failed-closed WAL refuses every upload
        // until a checkpoint rewrites it). Recovery resets the counters,
        // so the delta saturates to zero across a restart.
        let (io_errors, failed_closed) = match cluster.collector().store().lock().durability_stats()
        {
            Some(d) => (d.io_errors, d.failed),
            None => (0, false),
        };
        let io_delta = io_errors.saturating_sub(self.last_io_errors);
        if io_delta > 0 || failed_closed {
            findings.push(WatchdogFinding::StoreIoErrors {
                errors: io_delta,
                failed_closed,
            });
        }
        self.last_io_errors = io_errors;

        let registry = pingmesh_obs::registry();
        for f in &findings {
            registry
                .counter_with(
                    "pingmesh_realmode_watchdog_findings_total",
                    &[("class", f.class())],
                )
                .inc();
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent_loop::tests::STEP;
    use crate::agent_loop::RealAgentConfig;
    use crate::chaos::Toxic;
    use crate::cluster::ClusterOptions;
    use parking_lot::Mutex;
    use pingmesh_controller::GeneratorConfig;
    use pingmesh_httpx::Response;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::Pinglist;
    use std::sync::Arc;

    #[tokio::test]
    async fn healthy_cluster_has_no_findings() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(0));
        agent.poll_controller().await;
        agent.skip(STEP);
        agent.probe_due().await;
        agent.flush(true).await;
        let mut wd = RealWatchdog::new(Duration::from_secs(60));
        let findings = wd.check(&cluster, &[&agent]).await;
        assert!(findings.is_empty(), "{findings:?}");
    }

    /// A controller that answers every pinglist request with `list`: the
    /// hand-made lists a generator never produces.
    async fn serving(list: Arc<Mutex<Pinglist>>) -> SocketAddr {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(pingmesh_httpx::serve(listener, move |_req| {
            Response::ok(pingmesh_controller::to_xml(&list.lock()).into_bytes())
        }));
        addr
    }

    #[tokio::test]
    async fn unsafe_pinglist_is_clamped_and_reported() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        // A misbehaving controller: every entry of server 3's list asks
        // for a 1-second cadence, ten times the hard limit.
        let safe = pingmesh_controller::PinglistGenerator::new(GeneratorConfig::default())
            .generate_for(cluster.topology(), ServerId(3), 1);
        let mut bad = safe.clone();
        for e in &mut bad.entries {
            e.interval = SimDuration::from_secs(1);
        }
        let unsafe_entries = bad.entries.len() as u64;
        let served = Arc::new(Mutex::new(bad));
        let controller = serving(served.clone()).await;
        let metric = pingmesh_obs::registry().counter("pingmesh_agent_sanitized_entries_total");
        let metric_before = metric.get();

        let config = RealAgentConfig::new(ServerId(3), controller, cluster.collector_addr());
        let mut agent = RealAgent::new(
            config,
            cluster.topology().clone(),
            cluster.directory().clone(),
        );
        agent.poll_controller().await;
        assert!(!agent.is_stopped());
        assert_eq!(agent.view().sanitized_entries(), unsafe_entries);
        assert!(metric.get() >= metric_before + unsafe_entries);
        // Clamped, not refused: the agent still probes the list.
        agent.skip(STEP);
        assert!(agent.probe_due().await > 0);
        agent.flush(true).await;

        let mut wd = RealWatchdog::new(Duration::from_secs(60));
        let findings = wd.check(&cluster, &[&agent]).await;
        assert_eq!(
            findings,
            vec![WatchdogFinding::ControllerViolatedSafetyLimits(
                unsafe_entries
            )]
        );
        // A corrected controller clears the finding on the next check.
        *served.lock() = safe;
        agent.poll_controller().await;
        let findings = wd.check(&cluster, &[&agent]).await;
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[tokio::test]
    async fn stalled_controller_and_stopped_agents_are_reported() {
        let cluster = LocalCluster::start_with(
            TopologySpec::single_tiny(),
            GeneratorConfig::default(),
            ClusterOptions {
                controller_replicas: 1,
                chaos: true,
                seed: 3,
                ..ClusterOptions::default()
            },
        )
        .await;
        let mut agent = cluster.agent(ServerId(1));
        agent.poll_controller().await;
        // Kill the only controller replica; the agent fail-closes after
        // three polls and the watchdog sees both conditions.
        cluster.controller_chaos(0).set_toxic(Toxic::Refuse);
        for _ in 0..3 {
            agent.poll_controller().await;
        }
        assert!(agent.is_stopped());
        let mut wd = RealWatchdog::new(Duration::from_secs(60));
        wd.call_deadline = Duration::from_millis(500);
        let findings = wd.check(&cluster, &[&agent]).await;
        assert!(
            findings.contains(&WatchdogFinding::ControllerClusterDown),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, WatchdogFinding::AgentsStopped(1))),
            "{findings:?}"
        );
        // Restore: the findings clear on the next check.
        cluster.controller_chaos(0).set_toxic(Toxic::Pass);
        agent.poll_controller().await;
        assert!(!agent.is_stopped());
        let findings = wd.check(&cluster, &[&agent]).await;
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[tokio::test]
    async fn wal_io_errors_surface_as_store_io_findings() {
        use pingmesh_dsa::store::StreamName;
        use pingmesh_types::{
            DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, SimTime,
        };
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let agent = cluster.agent(ServerId(0));
        let mut wd = RealWatchdog::new(Duration::from_secs(60));
        wd.check(&cluster, &[&agent]).await; // baseline, no findings carried
                                             // The background compactor would heal a failed-closed WAL
                                             // (failed → always checkpoint-due) before the watchdog
                                             // looks; stop it so the failure stays observable.
        cluster.collector().stop_background_compaction();
        // Exhaust the WAL retry budget: the next append fails closed.
        cluster.collector().store().lock().inject_wal_io_errors(5);
        let rec = ProbeRecord {
            ts: SimTime(1),
            src: ServerId(0),
            dst: ServerId(1),
            src_pod: PodId(0),
            dst_pod: PodId(0),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(0),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: ProbeOutcome::Timeout,
        };
        {
            let mut store = cluster.collector().store().lock();
            assert!(
                !store.append(StreamName { dc: DcId(0) }, &[rec], SimTime(1)),
                "append must fail closed after exhausting retries"
            );
        }
        let findings = wd.check(&cluster, &[&agent]).await;
        assert!(
            findings.iter().any(|f| matches!(
                f,
                WatchdogFinding::StoreIoErrors {
                    failed_closed: true,
                    ..
                }
            )),
            "{findings:?}"
        );
    }

    #[tokio::test]
    async fn a_store_that_never_received_a_record_has_no_newest_age() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(6));
        agent.poll_controller().await;
        agent.skip(STEP);
        assert!(agent.probe_due().await > 0);
        // The agent probes but never uploads: its records stay buffered.
        let mut wd = RealWatchdog::new(Duration::from_millis(50));
        tokio::time::sleep(Duration::from_millis(100)).await;
        let findings = wd.check(&cluster, &[&agent]).await;
        assert_eq!(cluster.collector().stats().records, 0);
        assert!(
            findings.contains(&WatchdogFinding::StaleStore { newest_age: None }),
            "{findings:?}"
        );
    }

    /// The age `StaleStore` reports is the store's: a watchdog created over
    /// a store whose newest record is old reports that record's age on its
    /// first check, not its own lifetime.
    #[tokio::test]
    async fn stale_store_reports_the_age_of_the_newest_stored_record() {
        use pingmesh_dsa::store::StreamName;
        use pingmesh_types::{
            DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass,
        };
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let old = ProbeRecord {
            ts: SimTime::ZERO,
            src: ServerId(0),
            dst: ServerId(1),
            src_pod: PodId(0),
            dst_pod: PodId(0),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(0),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: ProbeOutcome::Timeout,
        };
        assert!(cluster.collector().store().lock().append(
            StreamName { dc: DcId(0) },
            &[old],
            SimTime::ZERO
        ));
        let mut agent = cluster.agent(ServerId(4));
        agent.poll_controller().await;
        let aged = Duration::from_millis(300);
        tokio::time::sleep(aged).await;
        let mut wd = RealWatchdog::new(Duration::from_millis(100));
        let findings = wd.check(&cluster, &[&agent]).await;
        let age = findings.iter().find_map(|f| match f {
            WatchdogFinding::StaleStore { newest_age } => *newest_age,
            _ => None,
        });
        let age = age.unwrap_or_else(|| panic!("no StaleStore age: {findings:?}"));
        assert!(age.as_micros() >= aged.as_micros() as u64, "{age}");
    }

    #[tokio::test]
    async fn cleared_pinglists_surface_as_no_pinglists_served() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        cluster.controller_state().clear_pinglists();
        let agent = cluster.agent(ServerId(2));
        let mut wd = RealWatchdog::new(Duration::from_secs(60));
        let findings = wd.check(&cluster, &[&agent]).await;
        assert!(
            findings.contains(&WatchdogFinding::NoPinglistsServed),
            "{findings:?}"
        );
    }
}
