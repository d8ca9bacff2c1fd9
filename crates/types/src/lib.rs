//! Shared core types for the Pingmesh reproduction.
//!
//! This crate holds the vocabulary used by every other crate in the
//! workspace: identifiers for data-center entities ([`id`]), network-level
//! primitives such as five-tuples and QoS classes ([`net`]), virtual time
//! ([`time`]), probe descriptions and results ([`probe`]), the pinglist
//! schema exchanged between the Controller and the Agents ([`pinglist`]),
//! a log-bucketed latency histogram with percentile queries ([`hist`]),
//! the performance counters exported by every Agent ([`counters`]), and the
//! common error type ([`error`]).
//!
//! The crate is intentionally dependency-light (only `serde`) so that it can
//! be used from the simulation substrate, the real-socket agents, and the
//! analysis pipeline alike.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod constants;
pub mod counters;
pub mod error;
pub mod hist;
pub mod id;
pub mod inline_vec;
pub mod net;
pub mod pinglist;
pub mod probe;
pub mod quantile;
pub mod telemetry;
pub mod time;

pub use backoff::Backoff;
pub use counters::{AgentCounters, CounterSnapshot};
pub use error::{PingmeshError, Result};
pub use hist::LatencyHistogram;
pub use id::{DcId, DeviceId, PodId, PodsetId, ServerId, ServiceId, SwitchId, SwitchTier};
pub use inline_vec::InlineVec;
pub use net::{FiveTuple, IpProto, QosClass, VipId};
pub use pinglist::{PingTarget, Pinglist, PinglistEntry};
pub use probe::{PairStats, ProbeKind, ProbeOutcome, ProbeRecord};
pub use time::{DownWindows, SimDuration, SimTime};
