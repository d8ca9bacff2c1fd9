//! Real-socket Pingmesh deployment.
//!
//! Everything the simulation mode exercises at fleet scale, over actual
//! TCP connections: the Controller's RESTful pinglist service
//! (`pingmesh-controller::web`), a record **collector** standing in for
//! Cosmos's upload front-end ([`collector`]), per-server TCP/HTTP
//! **responders**, a **peer directory** mapping topology server ids to
//! socket addresses ([`directory`]), and the full **agent run loop**
//! ([`agent_loop`]) with the paper's fail-closed, bounded-resource
//! semantics.
//!
//! [`cluster::LocalCluster`] wires all of it on localhost: a miniature
//! Pingmesh deployment exchanging real packets, used by the
//! `real_cluster` example and the integration tests.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent_loop;
pub mod chaos;
pub mod cluster;
pub mod collector;
pub mod directory;
pub mod mitigate;
pub mod vip;
pub mod watchdog;

pub use agent_loop::{RealAgent, RealAgentConfig};
pub use chaos::{ChaosHandle, ChaosProxy, Toxic};
pub use cluster::{ClusterOptions, LocalCluster};
pub use collector::{
    serve_collector, upload_records, Collector, HealthReport, SloJson, StageHealth,
};
pub use directory::PeerDirectory;
pub use mitigate::{LiveMitigator, ScanReport};
pub use pingmesh_types::backoff::Backoff;
pub use vip::ControllerVip;
pub use watchdog::RealWatchdog;
