//! Live (real-socket) auto-mitigation drill.
//!
//! The simulation exercises the [`MitigationEngine`] against simulated
//! switches; this module runs the **same** engine against real TCP
//! endpoints, exactly as the engine's type parameter anticipates: here
//! `D = usize`, a controller replica index. The drill closes the loop
//! over actual sockets:
//!
//! 1. **Detect** — a live health probe (`GET /pinglist/{server}` with a
//!    short deadline) against every replica still in rotation. A failed
//!    probe is a deterministic, remotely-observed symptom, so it is
//!    reported as a [`FindingKind::Blackhole`] with confidence 1.0.
//! 2. **Drain** — the engine decides under the tier-budget guard
//!    (never hold more than `max_drain_fraction` of the replica set out
//!    of rotation) and per-replica cooldown; a drained replica is
//!    removed from the address set that [`ControllerVip`] load-balances
//!    over, so agents stop being routed to it.
//! 3. **Verify** — after `min_soak`, the engine schedules targeted
//!    confirmation probes; only a **live successful fetch** through the
//!    replica un-drains it.
//! 4. **Un-drain / escalate** — a verified replica re-enters rotation
//!    under cooldown; one that stays broken for `max_verify_attempts`
//!    is escalated and held for humans.
//!
//! Chaos injection for the drill comes from [`crate::chaos::ChaosProxy`]:
//! pointing a replica slot at a proxy and flipping its [`Toxic`] between
//! `Refuse` and `Pass` produces the fault and the recovery without
//! killing any real task.
//!
//! [`Toxic`]: crate::chaos::Toxic

use crate::vip::ControllerVip;
use pingmesh_controller::{
    fetch_pinglist_with, Decision, FindingKind, MitigationConfig, MitigationEngine, VerifyOutcome,
};
use pingmesh_types::{ServerId, SimTime};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Replicas form a single flat tier in the live drill.
const REPLICA_TIER: u32 = 0;

/// What one [`LiveMitigator::scan`] pass did, for drill assertions and
/// operator logs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Replica indices probed for detection this pass (drained replicas
    /// are skipped — they are probed by the verification path instead).
    pub probed: Vec<usize>,
    /// Replicas drained this pass.
    pub drained: Vec<usize>,
    /// Replicas verified healthy and returned to rotation this pass.
    pub undrained: Vec<usize>,
    /// Replicas that failed a verification probe and stayed drained.
    pub kept_drained: Vec<usize>,
    /// Replicas escalated to humans this pass (recurrence, exhausted
    /// verification, or a tier-budget page).
    pub escalated: Vec<usize>,
}

/// Closed-loop mitigation over a set of live controller replicas.
///
/// Wraps a [`MitigationEngine`] keyed by replica index and drives it
/// from real socket probes on a wall-clock timeline (the engine's
/// virtual [`SimTime`] is microseconds since this mitigator was built,
/// so the same soak/cooldown arithmetic the simulation verifies applies
/// unchanged to wall time).
pub struct LiveMitigator {
    engine: MitigationEngine<usize>,
    replicas: Vec<SocketAddr>,
    epoch: Instant,
    probe_deadline: Duration,
}

impl LiveMitigator {
    /// Builds a mitigator over `replicas` with the given engine config.
    ///
    /// `probe_deadline` bounds every health probe; a replica that cannot
    /// answer a pinglist fetch within it is treated as down. Drills use
    /// a short deadline (hundreds of milliseconds) so a `Stall` toxic is
    /// detected quickly.
    pub fn new(
        replicas: Vec<SocketAddr>,
        config: MitigationConfig,
        probe_deadline: Duration,
    ) -> Self {
        LiveMitigator {
            engine: MitigationEngine::new(config),
            replicas,
            epoch: Instant::now(),
            probe_deadline,
        }
    }

    /// Current time on the mitigator's clock: wall microseconds since
    /// construction, as the engine's virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// The underlying engine (state, transitions, counters) for
    /// assertions and the `pingmesh-top` panel.
    pub fn engine(&self) -> &MitigationEngine<usize> {
        &self.engine
    }

    /// Replica addresses currently in rotation (not held out by the
    /// engine). Feed this to [`ControllerVip::new`] after each scan.
    fn in_rotation(&self) -> Vec<SocketAddr> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.engine.is_drained(*i))
            .map(|(_, &a)| a)
            .collect()
    }

    /// A fresh VIP over the replicas currently in rotation.
    ///
    /// Panics if every replica is drained — the tier-budget guard makes
    /// that unreachable for any fraction below 1.0.
    pub fn vip(&self) -> ControllerVip {
        ControllerVip::new(self.in_rotation())
    }

    /// One live health probe: can this replica answer a pinglist fetch
    /// for `server` within the deadline?
    async fn probe(&self, addr: SocketAddr, server: ServerId) -> bool {
        fetch_pinglist_with(addr, server, self.probe_deadline)
            .await
            .is_ok()
    }

    /// One detect → drain → verify → un-drain pass over every replica.
    ///
    /// Detection probes replicas still in rotation and reports failures
    /// to the engine; verification probes replicas whose soak has
    /// elapsed and records the outcome. Call this on a short interval
    /// (the drill calls it in a loop) — each pass is bounded by
    /// `replicas × probe_deadline`.
    pub async fn scan(&mut self, server: ServerId) -> ScanReport {
        let mut report = ScanReport::default();

        // Detection: probe the in-rotation set.
        for i in 0..self.replicas.len() {
            if self.engine.is_drained(i) {
                continue;
            }
            report.probed.push(i);
            if self.probe(self.replicas[i], server).await {
                continue;
            }
            // A refused/stalled fetch is deterministic, so confidence 1.0.
            let now = self.now();
            match self.engine.report(
                i,
                REPLICA_TIER,
                self.replicas.len(),
                FindingKind::Blackhole,
                1.0,
                now,
            ) {
                Decision::Drain => report.drained.push(i),
                Decision::DrainAndEscalate => {
                    report.drained.push(i);
                    report.escalated.push(i);
                }
                Decision::Rejected(_) => {}
            }
        }

        // Verification: targeted confirmation probes through drained
        // replicas whose soak has elapsed.
        let due = self.engine.due_verifications(self.now());
        for i in due {
            let healthy = self.probe(self.replicas[i], server).await;
            match self.engine.record_verification(i, healthy, self.now()) {
                VerifyOutcome::Undrain => report.undrained.push(i),
                VerifyOutcome::KeepDrained => report.kept_drained.push(i),
                VerifyOutcome::Escalated => report.escalated.push(i),
            }
        }

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosProxy, Toxic};
    use pingmesh_controller::{
        GeneratorConfig, MitigationState, PinglistGenerator, PinglistSource, WebState,
    };
    use pingmesh_topology::{Topology, TopologySpec};
    use std::sync::Arc;
    use tokio::net::TcpListener;

    async fn live_replica() -> SocketAddr {
        let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
        let generator = PinglistGenerator::new(GeneratorConfig::default());
        let state = Arc::new(WebState::new());
        state.set_pinglists(PinglistSource::new(topo, generator, 1));
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(pingmesh_controller::serve(listener, state));
        addr
    }

    fn drill_config() -> MitigationConfig {
        MitigationConfig {
            // Budget of 1 out of 3 replicas.
            max_drain_fraction: 0.34,
            min_soak: pingmesh_types::SimDuration::from_millis(50),
            cooldown: pingmesh_types::SimDuration::from_millis(200),
            max_verify_attempts: 3,
            recurrence_window: pingmesh_types::SimDuration::from_secs(30),
            min_confidence: 0.5,
        }
    }

    /// The full closed loop over real sockets: a `Refuse` toxic on one
    /// replica is detected by a live probe, the replica is drained out
    /// of the VIP rotation (agents keep fetching via the survivors), a
    /// verification probe while it is still broken keeps it drained,
    /// and only after the toxic clears does a live probe verify it back
    /// into rotation.
    #[tokio::test]
    async fn live_drill_detect_drain_verify_undrain() {
        let sick_upstream = live_replica().await;
        let proxy = ChaosProxy::start(sick_upstream, 7).await.unwrap();
        let replicas = vec![proxy.addr(), live_replica().await, live_replica().await];
        let chaos = proxy.handle().clone();

        let mut mit =
            LiveMitigator::new(replicas.clone(), drill_config(), Duration::from_millis(300));

        // Healthy baseline: nothing drains.
        let r = mit.scan(ServerId(0)).await;
        assert_eq!(r.probed, vec![0, 1, 2]);
        assert!(r.drained.is_empty());
        assert_eq!(mit.in_rotation().len(), 3);

        // Break replica 0 and detect it.
        chaos.set_toxic(Toxic::Refuse);
        let r = mit.scan(ServerId(0)).await;
        assert_eq!(r.drained, vec![0], "refused probe must drain replica 0");
        assert_eq!(mit.engine().state_of(0), Some(MitigationState::Drained));
        assert_eq!(mit.in_rotation(), vec![replicas[1], replicas[2]]);

        // The control plane stays up through the VIP during the drain.
        let pl = mit
            .vip()
            .fetch_pinglist(ServerId(0), Duration::from_secs(5))
            .await
            .expect("survivors must serve")
            .expect("pinglist present");
        assert!(!pl.entries.is_empty());

        // Soak elapses while the replica is still broken: the
        // verification probe fails live and the drain holds.
        tokio::time::sleep(Duration::from_millis(60)).await;
        let r = mit.scan(ServerId(0)).await;
        assert_eq!(r.kept_drained, vec![0]);
        assert!(r.undrained.is_empty());
        assert_eq!(mit.in_rotation().len(), 2);

        // Fix the replica; the next due verification probes it live and
        // un-drains it.
        chaos.set_toxic(Toxic::Pass);
        tokio::time::sleep(Duration::from_millis(60)).await;
        let r = mit.scan(ServerId(0)).await;
        assert_eq!(r.undrained, vec![0], "healthy probe must un-drain");
        assert_eq!(mit.engine().state_of(0), Some(MitigationState::Undrained));
        assert_eq!(mit.in_rotation().len(), 3);
        assert_eq!(mit.engine().drains(), 1);
        assert_eq!(mit.engine().undrains(), 1);
        assert_eq!(mit.engine().escalations(), 0);

        // Flap guard: breaking it again inside the cooldown is rejected,
        // so the replica does not bounce in and out of rotation.
        chaos.set_toxic(Toxic::Refuse);
        let r = mit.scan(ServerId(0)).await;
        assert!(r.drained.is_empty(), "cooldown must reject the re-drain");
        assert_eq!(mit.in_rotation().len(), 3);
        assert_eq!(mit.engine().drains(), 1);
    }

    /// The tier-budget guard holds over live sockets: with a budget of
    /// one replica, a second simultaneous failure is blocked (and
    /// paged), so the VIP never loses more than the budgeted fraction
    /// of its rotation to automation.
    #[tokio::test]
    async fn live_tier_budget_blocks_second_drain() {
        let up0 = live_replica().await;
        let up1 = live_replica().await;
        let p0 = ChaosProxy::start(up0, 11).await.unwrap();
        let p1 = ChaosProxy::start(up1, 13).await.unwrap();
        let replicas = vec![p0.addr(), p1.addr(), live_replica().await];

        let mut mit =
            LiveMitigator::new(replicas.clone(), drill_config(), Duration::from_millis(300));

        p0.handle().set_toxic(Toxic::Refuse);
        p1.handle().set_toxic(Toxic::Refuse);
        let r = mit.scan(ServerId(0)).await;

        // Exactly one drain fits the budget; the other failure pages.
        assert_eq!(r.drained.len(), 1, "budget is floor(0.34 * 3) = 1");
        assert_eq!(mit.in_rotation().len(), 2);
        assert_eq!(mit.engine().drains(), 1);
        assert!(
            mit.engine().escalations() >= 1,
            "blocked drain must escalate to humans"
        );

        // The VIP still answers from the untouched replica.
        let pl = mit
            .vip()
            .fetch_pinglist(ServerId(0), Duration::from_secs(5))
            .await
            .expect("rotation must keep serving")
            .expect("pinglist present");
        assert!(!pl.entries.is_empty());
    }
}
