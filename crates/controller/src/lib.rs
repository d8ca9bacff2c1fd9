//! The Pingmesh Controller: "the brain of the whole system".
//!
//! Per paper §3.3, the Controller consists of:
//!
//! * the **Pingmesh Generator** ([`genalgo`]) which runs the pinglist
//!   generation algorithm — three levels of complete graphs (intra-pod
//!   servers, intra-DC ToR pairs via "server *i* pings server *i*",
//!   inter-DC with selected servers per podset), plus the QoS and VIP
//!   monitoring extensions of §6.2, bounded by per-server probe-count and
//!   interval thresholds;
//! * **Pinglist XML** serialization ([`xml`]) — the loosely-coupled file
//!   contract between Controller and Agent;
//! * a stateless **RESTful web service** ([`web`]) agents pull their
//!   pinglist from (the Controller never pushes);
//! * the **software load balancer** ([`slb`]) that fronts several
//!   controller replicas behind one VIP for fault tolerance and scale-out,
//!   and the in-process equivalents used by the simulation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod genalgo;
pub mod mitigate;
pub mod slb;
pub mod web;
pub mod xml;

pub use genalgo::{GeneratorConfig, PinglistGenerator, PinglistSet, PinglistSource};
pub use mitigate::{
    Decision, FindingKind, MitigationConfig, MitigationEngine, MitigationState, RejectReason,
    TransitionRecord, VerifyOutcome,
};
pub use slb::{ControllerCluster, SimController};
pub use web::{fetch_pinglist, fetch_pinglist_with, serve, WebState};
pub use xml::{from_xml, to_xml};
