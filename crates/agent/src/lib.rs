//! The Pingmesh Agent.
//!
//! "Every server runs a Pingmesh Agent. Its task is simple: downloads
//! pinglist from the Pingmesh Controller; pings the servers in the
//! pinglist; then uploads the ping result to DSA." (§3.4) — and yet "the
//! Pingmesh Agent is one of the most challenging part to implement"
//! because it must be **fail-closed** and almost free:
//!
//! * hard-coded floor on the probe interval and cap on the payload size
//!   ([`guard`]),
//! * stop probing after 3 consecutive controller failures or when the
//!   controller serves no pinglist (while still *answering* probes),
//! * bounded in-memory results, each held once, with retry-then-discard
//!   uploads and a capped local log rendered only on read ([`buffer`]),
//! * deterministic spreading of probes over time ([`scheduler`]) and a
//!   fresh ephemeral source port per probe,
//! * exported perf counters (P50/P99/drop rate) for the fast PA pipeline.
//!
//! All of that is one sans-IO state machine, [`AgentFleet`] ([`soa`]),
//! with two drivers outside this crate: the discrete-event orchestrator
//! in `pingmesh-core` and the tokio `RealAgent` in `pingmesh-realmode`
//! (a fleet of one). [`real`] contains the tokio TCP/HTTP prober and
//! responder the latter probes with — the analogue of the paper's
//! purpose-built IOCP network library.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod config;
pub mod guard;
pub mod real;
pub mod scheduler;
pub mod soa;

pub use buffer::UploadBatch;
pub use config::AgentConfig;
pub use guard::SafetyGuard;
pub use soa::{AgentFleet, AgentView, ControllerPollOutcome};
