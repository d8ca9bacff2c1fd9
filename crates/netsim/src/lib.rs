//! Discrete-event data-center network simulator for Pingmesh.
//!
//! The paper measured a production network; this crate is the substitute
//! substrate (DESIGN.md, substitution 1). It models exactly the statistics
//! Pingmesh consumes — per-probe RTT and success/failure — with enough
//! mechanistic fidelity that every analysis in the paper works unchanged:
//!
//! * **Latency** ([`latency`]): per-direction host-stack cost, per-switch
//!   forwarding plus load-dependent queuing delay, rare long host hiccups
//!   (the source of the paper's multi-hundred-ms P99.99), payload
//!   transmission and user-space echo costs, and inter-DC propagation.
//! * **TCP connect semantics** ([`net`]): a dropped SYN is retransmitted
//!   after 3 s, then 6 s more; a probe whose first SYN died therefore
//!   *succeeds with RTT ≈ 3 s* — the signature the paper's drop-rate
//!   heuristic (§4.2) decodes. Retransmitted SYNs reuse the five-tuple and
//!   thus the ECMP path, so deterministic black-holes kill whole
//!   connections.
//! * **Faults** ([`faults`]): packet black-holes keyed on address pairs
//!   (TCAM corruption) or on full five-tuples (ECMP-related), silent
//!   random drops invisible to switch counters, FCS-style payload-length-
//!   dependent corruption, congestion drops (visible), switch reloads,
//!   podset power-downs, and switch isolation honored by ECMP re-routing.
//! * **Traceroute** ([`traceroute`]): the TCP-traceroute companion tool
//!   used in §5.2 to localize a silently-dropping Spine switch.
//! * **Sampling** ([`rng`]): a ziggurat standard normal and lognormals
//!   held by their medians, so a latency draw takes no logarithm and,
//!   about 99 % of the time, no libm call besides its one `exp`.
//! * **A generic discrete-event queue** ([`engine`]): a time-ordered
//!   queue with FIFO ties. The orchestrator does not use it (its shards
//!   keep each agent's pending events in per-agent slots); the benchmark
//!   times it as a reference.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod faults;
pub mod latency;
pub mod net;
pub mod rng;
pub mod traceroute;

pub use engine::EventQueue;
pub use faults::{ActiveFault, FaultKind, Faults, Verdict};
pub use latency::{DcProfile, LoadSchedule, TierDrops};
pub use net::{CounterDelta, NetState, ProbeAttempt, SimNet, SwitchCounters};
pub use traceroute::{tcp_traceroute, TracerouteReport};
