//! End-to-end chaos drill over real sockets.
//!
//! A miniature Pingmesh fleet (two controller replicas + collector, all
//! behind fault-injecting proxies) runs while the drill kills, stalls,
//! and restores control-plane endpoints, asserting the paper's
//! robustness story (§3.3.2, §3.4.2, §3.5) end to end:
//!
//! 1. **Healthy baseline** — agents fetch, probe, upload; watchdog clean.
//! 2. **One replica killed** — the client-side VIP fails over; nobody
//!    fail-closes, every poll stays deadline-bounded.
//! 3. **Collector stalled** — uploads time out, retry on jittered
//!    backoff, then discard; agents keep probing with bounded memory.
//! 4. **Total controller outage** — agents fail-close after exactly 3
//!    polls each, every poll deadline-bounded; watchdog surfaces
//!    `ControllerClusterDown` + `AgentsStopped`.
//! 5. **Restore** — one successful poll resumes every agent, records
//!    flow again, watchdog findings clear.
//!
//! Every transition is also visible in the metrics registry, and the
//! drill finishes by scraping the collector's real `/metrics` endpoint
//! and asserting the new counters appear in the Prometheus exposition.
//!
//! The drill also exercises the data-quality SLO surface end to end:
//! tight freshness/coverage targets are installed on the collector, the
//! `/healthz` report is healthy at baseline, flips degraded during the
//! collector stall (freshness) and the total outage (freshness +
//! coverage), the watchdog surfaces matching `SloDegraded` findings, and
//! everything clears after restore.
//!
//! Deterministic under the fixed seed: the only probabilistic machinery
//! (proxy jitter, flaky rolls, backoff jitter) is seeded, and no toxic
//! used here is probabilistic.

use pingmesh::controller::GeneratorConfig;
use pingmesh::dsa::QualityConfig;
use pingmesh::obs::slo::SloKind;
use pingmesh::realmode::{
    ClusterOptions, HealthReport, LocalCluster, RealAgent, RealWatchdog, Toxic,
};
use pingmesh::topology::TopologySpec;
use pingmesh::types::{ServerId, SimDuration};
use pingmesh::WatchdogFinding;
use std::time::{Duration, Instant};

/// Per-phase control-plane deadline for the drill's agents. Small, so a
/// stalled endpoint costs little wall-clock; every bound below derives
/// from it.
const CALL_DEADLINE: Duration = Duration::from_millis(300);

/// A schedule step longer than any interval the default generator
/// assigns: after `skip(STEP)` every installed entry is due once.
const STEP: Duration = Duration::from_secs(180);

fn counter(name: &str) -> u64 {
    pingmesh::obs::registry().counter(name).get()
}

/// One GET over the wire, expecting a 200.
async fn scrape(addr: std::net::SocketAddr, path: &str) -> Vec<u8> {
    let req = pingmesh::httpx::Request::get(path);
    let resp = pingmesh::httpx::call(addr, &req, pingmesh::httpx::DEFAULT_IO_TIMEOUT)
        .await
        .expect("scrape");
    assert_eq!(resp.status, 200);
    resp.body
}

async fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    String::from_utf8(scrape(addr, "/metrics").await).expect("utf8 metrics")
}

/// Scrapes `/healthz` over the wire (only usable while the collector's
/// proxy passes traffic; fault phases read the collector handle instead).
async fn scrape_healthz(addr: std::net::SocketAddr) -> HealthReport {
    serde_json::from_slice(&scrape(addr, "/healthz").await).expect("healthz json")
}

fn slo<'a>(report: &'a HealthReport, kind: &str) -> &'a pingmesh::realmode::SloJson {
    report
        .slos
        .iter()
        .find(|s| s.slo == kind)
        .unwrap_or_else(|| panic!("{kind} SLO missing from {report:?}"))
}

fn has_degraded(findings: &[WatchdogFinding], kind: SloKind) -> bool {
    findings
        .iter()
        .any(|f| matches!(f, WatchdogFinding::SloDegraded { kind: k, .. } if *k == kind))
}

/// Dumps the self-monitoring surface for one drill phase (`--nocapture`
/// shows it; EXPERIMENTS.md transcribes it).
fn dump_health(phase: &str, report: &HealthReport) {
    eprintln!("[{phase}] healthy={}", report.healthy);
    for s in &report.slos {
        eprintln!(
            "[{phase}]   slo {:<12} value {:<12.6} target {:<10} healthy {} burn {:.2}",
            s.slo, s.value, s.target, s.healthy, s.burn_rate
        );
    }
    for st in &report.stages {
        if st.spans > 0 {
            eprintln!(
                "[{phase}]   stage {:<8} spans {:<6} p50 {:>6}us p99 {:>6}us",
                st.stage, st.spans, st.p50_us, st.p99_us
            );
        }
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn chaos_drill_kill_stall_restore() {
    let drill_start = Instant::now();
    // Trace every entry: the tiny mesh has too few pinglist entries for
    // the default 1/1024 sampling to arm anything, and the drill wants
    // real per-stage latencies on its health surface.
    pingmesh::obs::trace::set_sample_mod(1);
    let cluster = LocalCluster::start_with(
        TopologySpec::single_tiny(),
        GeneratorConfig::default(),
        ClusterOptions {
            controller_replicas: 2,
            chaos: true,
            seed: 42,
            ..ClusterOptions::default()
        },
    )
    .await;

    // Arm the data-quality SLOs with drill-scale targets: records older
    // than 2 s are stale, coverage is judged over the last 5 s, and only
    // the three participating agents' pod pairs are expected. (The 2 s
    // freshness target leaves margin for the collector-vs-agent epoch
    // skew, which is milliseconds here.)
    let agent_ids = [ServerId(0), ServerId(3), ServerId(7)];
    cluster
        .collector()
        .set_expected_pairs(cluster.expected_pairs_for(&agent_ids));
    cluster.collector().set_quality_config(QualityConfig {
        freshness_target: SimDuration::from_secs(2),
        coverage_horizon: SimDuration::from_secs(5),
        ..QualityConfig::default()
    });

    let mut agents: Vec<RealAgent> = agent_ids.into_iter().map(|s| cluster.agent(s)).collect();
    for a in &mut agents {
        a.config_mut().call_deadline = CALL_DEADLINE;
    }
    let mut watchdog = RealWatchdog::new(Duration::from_secs(60));
    watchdog.call_deadline = CALL_DEADLINE;

    // ── Phase 1: healthy baseline ────────────────────────────────────
    for a in &mut agents {
        a.poll_controller().await;
        assert!(!a.is_stopped());
        a.skip(STEP);
        assert!(a.probe_due().await > 0, "baseline probes");
        a.flush(true).await;
    }
    let baseline_records = cluster.collector().stats().records;
    assert!(baseline_records > 0, "baseline records stored");
    {
        let refs: Vec<&RealAgent> = agents.iter().collect();
        let findings = watchdog.check(&cluster, &refs).await;
        assert!(findings.is_empty(), "healthy fleet: {findings:?}");
    }
    {
        // The live /healthz endpoint agrees: every SLO within target,
        // every pipeline stage listed (tick/sla stay at zero spans — the
        // DSA tick pipeline is the simulator's; the drill's stages end at
        // append/partial).
        let report = scrape_healthz(cluster.collector_addr()).await;
        dump_health("phase1-healthy", &report);
        assert!(report.healthy, "baseline must be healthy: {report:?}");
        for kind in ["coverage", "completeness", "freshness"] {
            assert!(slo(&report, kind).healthy, "{kind} degraded: {report:?}");
        }
        assert_eq!(report.stages.len(), pingmesh::obs::trace::STAGES.len());
        let cov = slo(&report, "coverage");
        assert!(
            (cov.value - 1.0).abs() < 1e-9,
            "all expected pairs probed at baseline: {cov:?}"
        );
    }

    // ── Phase 2: replica 0 killed — VIP failover keeps the fleet fed ─
    cluster.controller_chaos(0).set_toxic(Toxic::Refuse);
    let failovers_before = counter("pingmesh_realmode_failovers_total");
    for a in &mut agents {
        // Two polls so every agent's round-robin cursor crosses the dead
        // replica at least once.
        for _ in 0..2 {
            let t0 = Instant::now();
            a.poll_controller().await;
            assert!(
                t0.elapsed() < 2 * CALL_DEADLINE + Duration::from_secs(1),
                "poll must stay deadline-bounded during a replica outage: {:?}",
                t0.elapsed()
            );
            assert!(!a.is_stopped(), "failover must prevent fail-close");
            assert!(a.view().peer_count() > 0);
        }
    }
    assert!(
        counter("pingmesh_realmode_failovers_total") >= failovers_before + agents.len() as u64,
        "every agent failed over past the dead replica"
    );

    // ── Phase 3: collector stalls — bounded retries, then discard ────
    cluster.collector_chaos().set_toxic(Toxic::Stall);
    let retries_before = counter("pingmesh_realmode_retries_total");
    let timeouts_before = counter("pingmesh_realmode_timeouts_total");
    {
        let a = &mut agents[0];
        a.skip(STEP);
        assert!(a.probe_due().await > 0);
        let t0 = Instant::now();
        a.flush(true).await;
        // 4 attempts × deadline + 3 jittered backoff sleeps (≤ 350 ms
        // total at the 50 ms base) — nowhere near the stall ceiling.
        assert!(
            t0.elapsed() < 4 * CALL_DEADLINE + Duration::from_secs(2),
            "flush must be retry-bounded, not stall-bound: {:?}",
            t0.elapsed()
        );
        assert!(
            a.view().discarded_total() > 0,
            "retries exhausted must discard"
        );
    }
    assert!(counter("pingmesh_realmode_retries_total") > retries_before);
    assert!(counter("pingmesh_realmode_timeouts_total") > timeouts_before);
    {
        let refs: Vec<&RealAgent> = agents.iter().collect();
        let findings = watchdog.check(&cluster, &refs).await;
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, WatchdogFinding::RecordsDiscarded(_))),
            "watchdog must surface the unhealthy upload path: {findings:?}"
        );
        // The discarded round is the whole completeness window: produced
        // but never stored ⇒ the completeness SLO burns.
        assert!(
            has_degraded(&findings, SloKind::Completeness),
            "discards must degrade completeness: {findings:?}"
        );
    }
    // With uploads stalled no new record lands, so the newest stored
    // record ages past the 2 s freshness target. Bounded wait: the
    // collector handle is read directly (its HTTP front sits behind the
    // stalled proxy — that being unreachable is the fault under test).
    let t0 = Instant::now();
    loop {
        let report = cluster.collector().health_report();
        if !slo(&report, "freshness").healthy {
            assert!(!report.healthy, "a degraded SLO must flip /healthz");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "freshness never degraded during the collector stall: {report:?}"
        );
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
    {
        let refs: Vec<&RealAgent> = agents.iter().collect();
        let findings = watchdog.check(&cluster, &refs).await;
        assert!(
            has_degraded(&findings, SloKind::Freshness),
            "watchdog must mirror the stale store: {findings:?}"
        );
    }

    // ── Phase 4: total controller outage — fleet fail-closes ────────
    cluster.controller_chaos(0).set_toxic(Toxic::Stall);
    cluster.controller_chaos(1).set_toxic(Toxic::Stall);
    let fail_closed_before = counter("pingmesh_realmode_fail_closed_transitions_total");
    for a in &mut agents {
        for poll in 0..3 {
            let t0 = Instant::now();
            a.poll_controller().await;
            assert!(
                t0.elapsed() < 2 * CALL_DEADLINE + Duration::from_secs(1),
                "poll {poll} must stay deadline-bounded with every replica stalled: {:?}",
                t0.elapsed()
            );
        }
        assert!(a.is_stopped(), "3 failed polls fail-close the agent");
        a.skip(STEP);
        assert_eq!(a.probe_due().await, 0, "fail-closed agents don't probe");
    }
    assert_eq!(
        counter("pingmesh_realmode_fail_closed_transitions_total"),
        fail_closed_before + agents.len() as u64,
        "each agent records exactly one fail-close transition"
    );
    {
        let refs: Vec<&RealAgent> = agents.iter().collect();
        let findings = watchdog.check(&cluster, &refs).await;
        assert!(
            findings.contains(&WatchdogFinding::ControllerClusterDown),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, WatchdogFinding::AgentsStopped(n) if *n == agents.len())),
            "{findings:?}"
        );
    }
    // Total outage: nothing probes, so the 5 s coverage horizon empties
    // out and both coverage and freshness sit degraded together.
    let t0 = Instant::now();
    loop {
        let report = cluster.collector().health_report();
        if !slo(&report, "coverage").healthy && !slo(&report, "freshness").healthy {
            dump_health("phase4-outage", &report);
            assert!(!report.healthy);
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(12),
            "coverage never degraded during the total outage: {report:?}"
        );
        tokio::time::sleep(Duration::from_millis(150)).await;
    }
    {
        let refs: Vec<&RealAgent> = agents.iter().collect();
        let findings = watchdog.check(&cluster, &refs).await;
        for kind in [SloKind::Coverage, SloKind::Freshness] {
            assert!(
                has_degraded(&findings, kind),
                "{kind:?} must be degraded during the outage: {findings:?}"
            );
        }
    }

    // ── Phase 5: restore — the fleet resumes per §3.4.2 ──────────────
    cluster.controller_chaos(0).set_toxic(Toxic::Pass);
    cluster.controller_chaos(1).set_toxic(Toxic::Pass);
    cluster.collector_chaos().set_toxic(Toxic::Pass);
    let resumes_before = counter("pingmesh_realmode_resumes_total");
    for a in &mut agents {
        a.poll_controller().await;
        assert!(
            !a.is_stopped(),
            "one valid pinglist resumes a stopped agent"
        );
        a.skip(STEP);
        assert!(a.probe_due().await > 0, "probing resumes");
        a.flush(true).await;
    }
    assert_eq!(
        counter("pingmesh_realmode_resumes_total"),
        resumes_before + agents.len() as u64
    );
    assert!(
        cluster.collector().stats().records > baseline_records,
        "records flow again after restore"
    );
    {
        let refs: Vec<&RealAgent> = agents.iter().collect();
        let findings = watchdog.check(&cluster, &refs).await;
        assert!(findings.is_empty(), "recovered fleet: {findings:?}");
    }
    {
        // The SLO surface clears with the fleet: /healthz (reachable
        // again through the restored proxy) reports healthy across the
        // board.
        let report = scrape_healthz(cluster.collector_addr()).await;
        dump_health("phase5-restored", &report);
        assert!(report.healthy, "restored fleet must be healthy: {report:?}");
        for kind in ["coverage", "completeness", "freshness"] {
            assert!(
                slo(&report, kind).healthy,
                "{kind} still degraded: {report:?}"
            );
        }
    }

    // ── Epilogue: the whole story is visible on /metrics ─────────────
    let text = scrape_metrics(cluster.collector_addr()).await;
    for metric in [
        "pingmesh_realmode_failovers_total",
        "pingmesh_realmode_retries_total",
        "pingmesh_realmode_timeouts_total",
        "pingmesh_realmode_fail_closed_transitions_total",
        "pingmesh_realmode_resumes_total",
        "pingmesh_realmode_discarded_records_total",
        "pingmesh_realmode_watchdog_findings_total",
        "pingmesh_chaos_faults_injected_total",
        "pingmesh_chaos_toxic_set_total",
        "pingmesh_slo_value",
        "pingmesh_slo_healthy",
        "pingmesh_slo_burn_rate",
        "pingmesh_dsa_freshness_us",
        "pingmesh_build_info",
        "pingmesh_uptime_seconds",
    ] {
        assert!(
            text.contains(metric),
            "{metric} missing from Prometheus exposition"
        );
    }

    // The drill is an always-on-service test, not a soak: hard cap.
    assert!(
        drill_start.elapsed() < Duration::from_secs(60),
        "drill exceeded its wall-clock budget: {:?}",
        drill_start.elapsed()
    );
}
