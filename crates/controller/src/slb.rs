//! Controller replication behind a software load balancer.
//!
//! "A Pingmesh Controller has a set of servers behind a single VIP. SLB
//! distributes the requests from the Pingmesh Agents to the Pingmesh
//! Controller servers. Every Pingmesh Controller server runs the same
//! piece of code and generates the same set of Pinglist files for all the
//! servers and is able to serve requests from any Pingmesh Agent. ...
//! once a Pingmesh Controller server stops functioning, it is
//! automatically removed from rotation by the SLB." (§3.3.2)
//!
//! [`SimController`] is one replica with an availability timeline and the
//! generation it serves, as generator inputs: a fetch generates the list;
//! [`ControllerCluster`] is the VIP: it spreads requests across replicas
//! by requesting server and retries on failure, so the cluster answers as long as one replica is
//! alive. Removing the pinglist files (`clear_pinglists`) is the paper's
//! global kill switch: agents that see "controller up, no pinglist"
//! fail-closed and stop probing.

use crate::genalgo::PinglistSource;
use pingmesh_types::{DownWindows, Pinglist, PingmeshError, ServerId, SimTime};
use std::sync::Arc;

/// One controller replica.
#[derive(Debug, Clone, Default)]
pub struct SimController {
    lists: Option<Arc<PinglistSource>>,
    outages: DownWindows,
}

impl SimController {
    /// A fresh replica with no pinglists yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a pinglist generation: from now on every fetch generates
    /// the asking server's list from `source`.
    pub fn set_pinglists(&mut self, source: Arc<PinglistSource>) {
        self.lists = Some(source);
    }

    /// Removes all pinglist files (the paper's way to stop the fleet).
    pub fn clear_pinglists(&mut self) {
        self.lists = None;
    }

    /// Declares an outage window for this replica.
    pub fn add_outage(&mut self, from: SimTime, until: Option<SimTime>) {
        self.outages.add(from, until);
    }

    /// Whether the replica is serving at `t`.
    pub fn is_up(&self, t: SimTime) -> bool {
        self.outages.is_up(t)
    }

    /// Handles one pinglist request. `Err` = unreachable; `Ok(None)` = up
    /// but no pinglist available; `Ok(Some)` = the pinglist.
    pub fn fetch(&self, server: ServerId, t: SimTime) -> Result<Option<Pinglist>, PingmeshError> {
        if !self.is_up(t) {
            return Err(PingmeshError::ControllerUnavailable(format!(
                "replica down at {t}"
            )));
        }
        Ok(self
            .lists
            .as_ref()
            .and_then(|source| source.for_server(server)))
    }
}

/// A set of controller replicas behind one VIP.
#[derive(Debug, Clone, Default)]
pub struct ControllerCluster {
    replicas: Vec<SimController>,
}

impl ControllerCluster {
    /// Creates a cluster of `n` empty replicas.
    pub fn new(n: usize) -> Self {
        Self {
            replicas: (0..n.max(1)).map(|_| SimController::new()).collect(),
        }
    }

    /// Access a replica (e.g. to schedule an outage).
    pub fn replica_mut(&mut self, i: usize) -> &mut SimController {
        &mut self.replicas[i]
    }

    /// Installs a pinglist generation on every replica — they all "run
    /// the same piece of code", so they always serve identical files.
    pub fn set_pinglists(&mut self, source: PinglistSource) {
        let source = Arc::new(source);
        for r in &mut self.replicas {
            r.set_pinglists(source.clone());
        }
    }

    /// Removes pinglists from every replica (global stop switch).
    pub fn clear_pinglists(&mut self) {
        for r in &mut self.replicas {
            r.clear_pinglists();
        }
    }

    /// Whether any replica is up at `t`.
    pub fn any_up(&self, t: SimTime) -> bool {
        self.replicas.iter().any(|r| r.is_up(t))
    }

    /// Whether the cluster holds pinglist files at all (`false` after
    /// [`ControllerCluster::clear_pinglists`] — the fleet stop state).
    pub fn serves_pinglists(&self) -> bool {
        self.replicas.iter().any(|r| r.lists.is_some())
    }

    /// One agent request through the VIP: starts at the replica keyed on
    /// the requesting server and fails over to the next until one answers.
    /// No shared cursor, so concurrent callers (the sharded engine's agent
    /// polls) get an outcome that never depends on fleet-wide poll order.
    /// All replicas serve identical files, so the start only decides which
    /// outage a request sees first.
    pub fn fetch(&self, server: ServerId, t: SimTime) -> Result<Option<Pinglist>, PingmeshError> {
        let n = self.replicas.len();
        let start = server.index() % n;
        let registry = pingmesh_obs::registry();
        registry
            .counter("pingmesh_controller_slb_fetches_total")
            .inc();
        let mut last_err = None;
        for k in 0..n {
            let idx = (start + k) % n;
            match self.replicas[idx].fetch(server, t) {
                Ok(r) => {
                    if k > 0 {
                        registry
                            .counter("pingmesh_controller_slb_failovers_total")
                            .inc();
                        pingmesh_obs::emit_sim!(t; Debug, "controller.slb", "failover",
                            "replica" => idx as u64, "skipped" => k as u64);
                    }
                    return Ok(r);
                }
                Err(e) => last_err = Some(e),
            }
        }
        registry
            .counter("pingmesh_controller_slb_all_down_total")
            .inc();
        pingmesh_obs::emit_sim!(t; Warn, "controller.slb", "all_replicas_down",
            "replicas" => n as u64);
        Err(last_err.expect("at least one replica"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genalgo::{GeneratorConfig, PinglistGenerator};
    use pingmesh_topology::{Topology, TopologySpec};

    fn lists() -> PinglistSource {
        let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
        PinglistSource::new(topo, PinglistGenerator::new(GeneratorConfig::default()), 1)
    }

    #[test]
    fn empty_replica_serves_nothing() {
        let c = SimController::new();
        assert!(matches!(c.fetch(ServerId(0), SimTime(0)), Ok(None)));
    }

    #[test]
    fn replica_outage_is_an_error() {
        let mut c = SimController::new();
        c.set_pinglists(Arc::new(lists()));
        c.add_outage(SimTime(100), Some(SimTime(200)));
        assert!(c.fetch(ServerId(0), SimTime(150)).is_err());
        assert!(matches!(c.fetch(ServerId(0), SimTime(250)), Ok(Some(_))));
    }

    #[test]
    fn unknown_server_gets_none() {
        let mut c = SimController::new();
        c.set_pinglists(Arc::new(lists()));
        assert!(matches!(c.fetch(ServerId(99_999), SimTime(0)), Ok(None)));
    }

    #[test]
    fn cluster_fails_over_to_healthy_replica() {
        let mut cluster = ControllerCluster::new(2);
        cluster.set_pinglists(lists());
        cluster.replica_mut(0).add_outage(SimTime(0), None);
        // Even servers start at the down replica 0, odd ones at replica 1:
        // both get an answer.
        for s in 0..10 {
            let got = cluster.fetch(ServerId(s), SimTime(50)).unwrap();
            assert!(got.is_some());
        }
    }

    #[test]
    fn cluster_with_all_replicas_down_errors() {
        let mut cluster = ControllerCluster::new(3);
        cluster.set_pinglists(lists());
        for i in 0..3 {
            cluster.replica_mut(i).add_outage(SimTime(0), None);
        }
        assert!(cluster.fetch(ServerId(0), SimTime(1)).is_err());
        assert!(!cluster.any_up(SimTime(1)));
    }

    #[test]
    fn clearing_pinglists_stops_serving_but_cluster_stays_up() {
        let mut cluster = ControllerCluster::new(2);
        cluster.set_pinglists(lists());
        assert!(cluster.fetch(ServerId(0), SimTime(0)).unwrap().is_some());
        cluster.clear_pinglists();
        // Up, answering, but with no pinglist — the fleet kill switch.
        assert!(cluster.any_up(SimTime(0)));
        assert!(cluster.fetch(ServerId(0), SimTime(0)).unwrap().is_none());
    }
}
