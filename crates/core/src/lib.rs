//! Pingmesh facade: end-to-end orchestration of the full system.
//!
//! This crate wires every substrate together the way Autopilot glued the
//! production deployment: the simulated network (`pingmesh-netsim`), the
//! controller cluster behind its VIP (`pingmesh-controller`), one agent
//! per server (`pingmesh-agent`), and the DSA pipeline
//! (`pingmesh-dsa`) — all driven by one discrete-event queue on a shared
//! virtual clock.
//!
//! * [`orchestrator::Orchestrator`] — build a deployment, inject faults,
//!   `run_until` a virtual time, inspect SLAs / alerts / findings.
//! * [`repair::RepairService`] — the §5.1 reload budget: reloads
//!   black-holed ToRs, at most 20 a day.
//! * [`mitigation`] — what the orchestrator's one actuator needs to drive
//!   the controller's mitigation engine: drained switches (§5.2's
//!   silent droppers, located by traceroute) leave ECMP, dark podsets
//!   leave the pinglists, and the engine's transition log is the one
//!   drain record.
//!
//! # Example
//!
//! Stand up a deployment, run half a virtual hour, read the DC SLA:
//!
//! ```
//! use pingmesh_core::{Orchestrator, OrchestratorConfig};
//! use pingmesh_core::netsim::DcProfile;
//! use pingmesh_core::topology::{ServiceMap, Topology, TopologySpec};
//! use pingmesh_core::types::{DcId, SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
//! let mut o = Orchestrator::new(
//!     topo,
//!     vec![DcProfile::us_central()],
//!     ServiceMap::new(),
//!     OrchestratorConfig::default(),
//! );
//! o.run_until(SimTime::ZERO + SimDuration::from_mins(30));
//!
//! let row = o
//!     .pipeline()
//!     .db
//!     .latest(pingmesh_core::dsa::ScopeKey::Dc(DcId(0)))
//!     .expect("the 10-minute job has produced a DC SLA row");
//! assert!(row.p50_us > 0);
//! assert!(row.drop_rate < 1e-3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod mitigation;
pub mod orchestrator;
pub mod repair;
pub mod watchdog;

pub use mitigation::{plan_podset_verification, plan_switch_verification, MitDevice, PlannedProbe};
pub use orchestrator::{Orchestrator, OrchestratorConfig, SimOutputs};
pub use repair::RepairService;
pub use watchdog::{detect_podset_power_down, WatchdogFinding};

// Re-export the component crates so downstream users (examples, the
// bench harness) can depend on `pingmesh-core` alone.
pub use pingmesh_agent as agent;
pub use pingmesh_controller as controller;
pub use pingmesh_dsa as dsa;
pub use pingmesh_netsim as netsim;
pub use pingmesh_topology as topology;
pub use pingmesh_types as types;
