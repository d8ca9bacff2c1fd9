//! Real-socket controller VIP: replica round-robin with failover.
//!
//! The paper's controller is "a set of servers behind a single VIP"
//! (§3.3.2): the SLB spreads agent requests over the replicas and pulls
//! dead ones out of rotation. Simulation mode models this with
//! `pingmesh_controller::ControllerCluster`; this is the real-socket
//! twin. An agent configured with N replica addresses round-robins its
//! polls across them and, when the picked replica times out or refuses,
//! fails over to the next — so the cluster answers as long as one
//! replica is alive, and no single replica outage ever fail-closes the
//! fleet.
//!
//! Every replica attempt is bounded by the caller's per-call deadline,
//! so a poll through the VIP takes at most `replicas × deadline` even
//! with every replica stalled.

use pingmesh_types::{Pinglist, PingmeshError, ServerId};
use std::net::SocketAddr;
use std::time::Duration;

/// The VIP's spreading policy, factored out of [`ControllerVip`] so any
/// replicated endpoint (controller replicas, the serve tier's query
/// replicas) shares one rotation: each call starts one slot after the
/// last and walks every replica once, so load spreads evenly and a
/// caller that fails over always has a full failover order.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    len: usize,
    cursor: usize,
}

impl RoundRobin {
    /// A rotation over `len` replicas (at least one required).
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "a VIP needs at least one replica");
        Self { len, cursor: 0 }
    }

    /// Number of replicas in rotation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: an empty rotation cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Advances the cursor and returns this call's visit order: the
    /// picked replica first, then every other replica as failovers.
    pub fn order(&mut self) -> impl Iterator<Item = usize> {
        let (n, start) = (self.len, self.cursor);
        self.cursor = (self.cursor + 1) % n;
        (0..n).map(move |k| (start + k) % n)
    }

    /// Advances the cursor and returns just the picked replica.
    pub fn pick(&mut self) -> usize {
        self.order().next().expect("rotation is never empty")
    }
}

/// A set of controller replica addresses behind one logical VIP.
#[derive(Debug, Clone)]
pub struct ControllerVip {
    replicas: Vec<SocketAddr>,
    rotation: RoundRobin,
}

impl ControllerVip {
    /// A VIP over `replicas` (at least one address required).
    pub fn new(replicas: Vec<SocketAddr>) -> Self {
        let rotation = RoundRobin::new(replicas.len());
        Self { replicas, rotation }
    }

    /// The single-replica (unreplicated) case.
    pub fn single(addr: SocketAddr) -> Self {
        Self::new(vec![addr])
    }

    /// Replica addresses behind this VIP.
    pub fn replicas(&self) -> &[SocketAddr] {
        &self.replicas
    }

    /// Fetches `server`'s pinglist through the VIP: starts at the
    /// round-robin cursor and fails over replica by replica. Returns the
    /// first replica's answer that arrives within `deadline`; errors only
    /// when every replica failed (with the last error). Timeouts and
    /// failovers are counted in the global metrics registry.
    pub async fn fetch_pinglist(
        &mut self,
        server: ServerId,
        deadline: Duration,
    ) -> Result<Option<Pinglist>, PingmeshError> {
        let n = self.replicas.len();
        let registry = pingmesh_obs::registry();
        let mut last_err = None;
        for (k, slot) in self.rotation.order().enumerate() {
            let addr = self.replicas[slot];
            match pingmesh_controller::fetch_pinglist_with(addr, server, deadline).await {
                Ok(r) => {
                    if k > 0 {
                        registry.counter("pingmesh_realmode_failovers_total").inc();
                        pingmesh_obs::emit!(Info, "realmode.vip", "failover",
                            "skipped" => k as u64);
                    }
                    return Ok(r);
                }
                Err(e) => {
                    if matches!(e, PingmeshError::Timeout(_)) {
                        registry.counter("pingmesh_realmode_timeouts_total").inc();
                    }
                    last_err = Some(e);
                }
            }
        }
        pingmesh_obs::emit!(Warn, "realmode.vip", "all_replicas_down",
            "replicas" => n as u64);
        Err(last_err.expect("at least one replica attempted"))
    }
}

impl From<SocketAddr> for ControllerVip {
    fn from(addr: SocketAddr) -> Self {
        Self::single(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_controller::{GeneratorConfig, PinglistGenerator, PinglistSource, WebState};
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

    fn dead_addr() -> SocketAddr {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
        // listener dropped: nothing accepts here
    }

    #[test]
    fn round_robin_spreads_evenly_and_covers_all_on_failover() {
        let mut rr = RoundRobin::new(3);
        // Successive picks rotate through every slot.
        let picks: Vec<usize> = (0..6).map(|_| rr.pick()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // A failover walk visits every replica exactly once, starting at
        // the rotated cursor.
        let order: Vec<usize> = rr.order().collect();
        assert_eq!(order, vec![0, 1, 2]);
        let order: Vec<usize> = rr.order().collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[tokio::test]
    async fn single_replica_round_trips() {
        let mut vip = ControllerVip::single(live_replica().await);
        let pl = vip
            .fetch_pinglist(ServerId(0), Duration::from_secs(5))
            .await
            .unwrap()
            .unwrap();
        assert!(!pl.entries.is_empty());
    }

    #[tokio::test]
    async fn fails_over_past_a_dead_replica() {
        let live = live_replica().await;
        let mut vip = ControllerVip::new(vec![dead_addr(), live]);
        let before = pingmesh_obs::registry()
            .counter("pingmesh_realmode_failovers_total")
            .get();
        // Whatever the cursor position, every fetch succeeds.
        for _ in 0..4 {
            let got = vip
                .fetch_pinglist(ServerId(1), Duration::from_secs(5))
                .await
                .unwrap();
            assert!(got.is_some());
        }
        let after = pingmesh_obs::registry()
            .counter("pingmesh_realmode_failovers_total")
            .get();
        assert!(
            after > before,
            "round-robin must have landed on the dead replica at least once"
        );
    }

    #[tokio::test]
    async fn all_replicas_dead_errors_within_bounded_time() {
        let mut vip = ControllerVip::new(vec![dead_addr(), dead_addr()]);
        let t0 = std::time::Instant::now();
        let err = vip
            .fetch_pinglist(ServerId(0), Duration::from_millis(300))
            .await
            .unwrap_err();
        assert!(
            matches!(
                err,
                PingmeshError::ControllerUnavailable(_) | PingmeshError::Timeout(_)
            ),
            "{err}"
        );
        // 2 replicas × 300 ms deadline, plus slack.
        assert!(t0.elapsed() < Duration::from_secs(3), "{:?}", t0.elapsed());
    }
}
