//! A miniature Pingmesh deployment on localhost, exchanging real packets.
//!
//! [`LocalCluster::start`] spins up, over actual TCP sockets:
//!
//! * one or more controller web-service replicas with generated
//!   pinglists (behind a client-side VIP, per [`ClusterOptions`]),
//! * the record collector,
//! * one TCP-echo responder and one HTTP responder per topology server
//!   (registered in the shared [`PeerDirectory`]), and
//! * hands out fully wired [`RealAgent`]s on demand.
//!
//! With [`ClusterOptions::chaos`] every control-plane endpoint sits
//! behind a [`ChaosProxy`], so a drill can kill, stall, degrade, and
//! restore the controller replicas and the collector independently at
//! runtime — the real-socket twin of the simulator's down-windows.

use crate::agent_loop::{RealAgent, RealAgentConfig};
use crate::chaos::{ChaosHandle, ChaosProxy};
use crate::collector::{serve_collector, Collector};
use crate::directory::{PeerDirectory, PeerEndpoints};
use pingmesh_agent::real::{serve_echo, serve_http};
use pingmesh_controller::{serve, GeneratorConfig, PinglistGenerator, PinglistSource, WebState};
use pingmesh_dsa::ExpectedPairs;
use pingmesh_serve::{serve_query, QueryTier};
use pingmesh_topology::{Topology, TopologySpec};
use pingmesh_types::ServerId;
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::net::TcpListener;

/// Deployment shape knobs for [`LocalCluster::start_with`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Controller web-service replicas behind the (client-side) VIP.
    pub controller_replicas: usize,
    /// Query-tier replicas over the collector's store (0 = no serve
    /// tier). Each replica owns its result cache; clients spread load
    /// across them with the same [`RoundRobin`] rotation as the
    /// controller VIP.
    ///
    /// [`RoundRobin`]: crate::vip::RoundRobin
    pub serve_replicas: usize,
    /// Put every controller replica and the collector behind a
    /// [`ChaosProxy`] so faults can be injected at runtime.
    pub chaos: bool,
    /// Seed driving every chaos proxy's probabilistic decisions.
    pub seed: u64,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            controller_replicas: 1,
            serve_replicas: 0,
            chaos: false,
            seed: 0,
        }
    }
}

/// Handles to a running localhost deployment.
pub struct LocalCluster {
    topo: Arc<Topology>,
    generator_config: GeneratorConfig,
    controller_addrs: Vec<SocketAddr>,
    controller_states: Vec<Arc<WebState>>,
    controller_proxies: Vec<ChaosProxy>,
    collector_addr: SocketAddr,
    collector: Collector,
    collector_proxy: Option<ChaosProxy>,
    serve_addrs: Vec<SocketAddr>,
    serve_tiers: Vec<QueryTier>,
    directory: PeerDirectory,
}

impl LocalCluster {
    /// Builds the topology, generates pinglists, starts every service and
    /// responder with default options (one replica, no chaos). All tasks
    /// are detached; they die with the runtime.
    pub async fn start(spec: TopologySpec, generator_config: GeneratorConfig) -> Self {
        Self::start_with(spec, generator_config, ClusterOptions::default()).await
    }

    /// [`LocalCluster::start`] with explicit [`ClusterOptions`].
    pub async fn start_with(
        spec: TopologySpec,
        generator_config: GeneratorConfig,
        options: ClusterOptions,
    ) -> Self {
        assert!(options.controller_replicas >= 1, "need ≥1 replica");
        let topo = Arc::new(Topology::build(spec).expect("valid topology"));

        // Controller replicas. Each replica is stateless and serves an
        // identically generated pinglist set (the generator is
        // deterministic for a given topology), mirroring the paper's
        // "set of servers behind one VIP".
        let generator = PinglistGenerator::new(generator_config.clone());
        let mut controller_addrs = Vec::new();
        let mut controller_states = Vec::new();
        let mut controller_proxies = Vec::new();
        for i in 0..options.controller_replicas {
            let state = Arc::new(WebState::new());
            state.set_pinglists(PinglistSource::new(topo.clone(), generator.clone(), 1));
            let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
            let upstream = listener.local_addr().expect("addr");
            tokio::spawn(serve(listener, state.clone()));
            let agent_facing = if options.chaos {
                let proxy = ChaosProxy::start(upstream, options.seed.wrapping_add(i as u64))
                    .await
                    .expect("proxy");
                let addr = proxy.addr();
                controller_proxies.push(proxy);
                addr
            } else {
                upstream
            };
            controller_addrs.push(agent_facing);
            controller_states.push(state);
        }

        // Collector.
        let collector = Collector::new();
        let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
        let upstream = listener.local_addr().expect("addr");
        tokio::spawn(serve_collector(listener, collector.clone()));
        let (collector_addr, collector_proxy) = if options.chaos {
            let proxy = ChaosProxy::start(upstream, options.seed.wrapping_add(0x1000))
                .await
                .expect("proxy");
            (proxy.addr(), Some(proxy))
        } else {
            (upstream, None)
        };

        // Query-tier replicas: each shares the collector's store but
        // owns a private result cache — the paper's "visualization
        // web service" front-end, scaled out behind the same
        // round-robin rotation as the controller VIP.
        let mut serve_addrs = Vec::new();
        let mut serve_tiers = Vec::new();
        for _ in 0..options.serve_replicas {
            let tier = QueryTier::new(Arc::clone(collector.store()));
            let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
            serve_addrs.push(listener.local_addr().expect("addr"));
            tokio::spawn(serve_query(listener, tier.clone()));
            serve_tiers.push(tier);
        }

        // Responders for every server.
        let directory = PeerDirectory::new();
        for server in topo.servers() {
            let echo = TcpListener::bind("127.0.0.1:0").await.expect("bind");
            let echo_addr = echo.local_addr().expect("addr");
            tokio::spawn(serve_echo(echo));
            let http = TcpListener::bind("127.0.0.1:0").await.expect("bind");
            let http_addr = http.local_addr().expect("addr");
            tokio::spawn(serve_http(http));
            directory.register(
                server,
                PeerEndpoints {
                    echo: echo_addr,
                    http: http_addr,
                },
            );
        }

        Self {
            topo,
            generator_config,
            controller_addrs,
            controller_states,
            controller_proxies,
            collector_addr,
            collector,
            collector_proxy,
            serve_addrs,
            serve_tiers,
            directory,
        }
    }

    /// The deployment topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The first controller replica's agent-facing address.
    pub fn controller_addr(&self) -> SocketAddr {
        self.controller_addrs[0]
    }

    /// Agent-facing addresses of every controller replica.
    pub fn controller_addrs(&self) -> &[SocketAddr] {
        &self.controller_addrs
    }

    /// The first replica's state handle (swap/clear pinglists at runtime).
    pub fn controller_state(&self) -> &Arc<WebState> {
        &self.controller_states[0]
    }

    /// Chaos control for controller replica `i` (chaos mode only).
    pub fn controller_chaos(&self, i: usize) -> &ChaosHandle {
        self.controller_proxies[i].handle()
    }

    /// The collector's agent-facing address.
    pub fn collector_addr(&self) -> SocketAddr {
        self.collector_addr
    }

    /// The collector handle (stats, outage injection, store access).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Chaos control for the collector path (chaos mode only).
    pub fn collector_chaos(&self) -> &ChaosHandle {
        self.collector_proxy
            .as_ref()
            .expect("cluster started without chaos")
            .handle()
    }

    /// Addresses of every query-tier replica (empty unless
    /// [`ClusterOptions::serve_replicas`] > 0).
    pub fn serve_addrs(&self) -> &[SocketAddr] {
        &self.serve_addrs
    }

    /// Query-tier replica `i`'s handle (cache/stats inspection).
    pub fn serve_tier(&self, i: usize) -> &QueryTier {
        &self.serve_tiers[i]
    }

    /// The shared peer directory.
    pub fn directory(&self) -> &PeerDirectory {
        &self.directory
    }

    /// The pod-pair coverage expectation for a deployment where only
    /// `servers` run agents. The generator is deterministic for a given
    /// topology and config, so this regenerates the same pinglists the
    /// controller replicas serve and keeps only the named sources —
    /// install the result with [`Collector::set_expected_pairs`] to arm
    /// the coverage SLO.
    ///
    /// [`Collector::set_expected_pairs`]: crate::collector::Collector::set_expected_pairs
    pub fn expected_pairs_for(&self, servers: &[ServerId]) -> ExpectedPairs {
        let generator = PinglistGenerator::new(self.generator_config.clone());
        let lists = servers
            .iter()
            .map(|&s| generator.generate_for(&self.topo, s, 1));
        ExpectedPairs::from_pinglists(&self.topo, lists)
    }

    /// A fully wired agent for one of the topology's servers, configured
    /// with every controller replica behind its VIP.
    pub fn agent(&self, server: ServerId) -> RealAgent {
        RealAgent::new(
            RealAgentConfig::with_controllers(
                server,
                self.controller_addrs.clone(),
                self.collector_addr,
            ),
            self.topo.clone(),
            self.directory.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent_loop::tests::STEP;

    #[tokio::test]
    async fn cluster_starts_all_services() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        assert_eq!(cluster.directory().len(), cluster.topology().server_count());
        // The controller serves a pinglist over real HTTP.
        let pl = pingmesh_controller::fetch_pinglist(cluster.controller_addr(), ServerId(0))
            .await
            .unwrap()
            .unwrap();
        assert!(!pl.entries.is_empty());
        // The collector starts empty.
        assert_eq!(cluster.collector().stats().records, 0);
    }

    #[tokio::test]
    async fn multiple_agents_share_the_deployment() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut total = 0u64;
        for s in [ServerId(0), ServerId(5), ServerId(9)] {
            let mut a = cluster.agent(s);
            a.poll_controller().await;
            a.skip(STEP);
            total += a.probe_due().await as u64;
            a.flush(true).await;
        }
        assert_eq!(cluster.collector().stats().records, total);
        assert!(total > 0);
    }

    #[tokio::test]
    async fn serve_replicas_answer_queries_over_the_collected_store() {
        let cluster = LocalCluster::start_with(
            TopologySpec::single_tiny(),
            GeneratorConfig::default(),
            ClusterOptions {
                serve_replicas: 2,
                ..ClusterOptions::default()
            },
        )
        .await;
        assert_eq!(cluster.serve_addrs().len(), 2);
        // Probe and upload so the store has content.
        let mut a = cluster.agent(ServerId(0));
        a.poll_controller().await;
        a.skip(STEP);
        assert!(a.probe_due().await > 0);
        a.flush(true).await;
        // Every replica answers the live-status query over real sockets,
        // spreading connections with the shared round-robin rotation.
        let mut rr = crate::vip::RoundRobin::new(cluster.serve_addrs().len());
        for _ in 0..4 {
            let addr = cluster.serve_addrs()[rr.pick()];
            let req = pingmesh_httpx::Request::get("/api/windows");
            let resp = pingmesh_httpx::call(addr, &req, pingmesh_httpx::DEFAULT_IO_TIMEOUT)
                .await
                .unwrap();
            assert_eq!(resp.status, 200);
            let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
            assert_eq!(v["empty"], serde_json::Value::Bool(false));
        }
        // Both replicas saw traffic and can be inspected via their tiers.
        assert!(cluster.serve_tier(0).cache().is_empty());
        assert!(cluster.serve_tier(1).cache().is_empty());
    }

    #[tokio::test]
    async fn replicated_chaos_cluster_serves_through_proxies() {
        let cluster = LocalCluster::start_with(
            TopologySpec::single_tiny(),
            GeneratorConfig::default(),
            ClusterOptions {
                controller_replicas: 2,
                chaos: true,
                seed: 11,
                ..ClusterOptions::default()
            },
        )
        .await;
        assert_eq!(cluster.controller_addrs().len(), 2);
        // Both replicas answer through their proxies.
        for &addr in cluster.controller_addrs() {
            let pl = pingmesh_controller::fetch_pinglist(addr, ServerId(0))
                .await
                .unwrap()
                .unwrap();
            assert!(!pl.entries.is_empty());
        }
        // The proxies counted the traffic.
        assert!(cluster.controller_chaos(0).connections() > 0);
        assert!(cluster.controller_chaos(1).connections() > 0);
        // An agent probes and uploads through the collector proxy.
        let mut a = cluster.agent(ServerId(1));
        a.poll_controller().await;
        a.skip(STEP);
        assert!(a.probe_due().await > 0);
        a.flush(true).await;
        assert!(cluster.collector().stats().records > 0);
        assert!(cluster.collector_chaos().connections() > 0);
    }
}
