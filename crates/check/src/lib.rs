//! # pingmesh-check — the deterministic correctness harness
//!
//! A seeded scenario fuzzer for the whole sim pipeline. One `u64` seed
//! expands into a [`ScenarioSpec`] — topology shape, probe cadences,
//! agent tunables, store geometry, and a fault schedule — which
//! [`run_scenario`] drives end to end (topology → pinglists → probes
//! against a faulted network → agent upload → store ingest → DSA
//! ticks) before checking every invariant oracle in [`oracle`]:
//!
//! 1. probe conservation (nothing the fleet observed vanishes),
//! 2. CRDT laws + shard-partition independence of window aggregates,
//! 3. quantile monotonicity and histogram-vs-exact agreement,
//! 4. SLA row consistency and scope-family count sums,
//! 5. windowed-scan equivalence against the oracles' own record filter,
//! 6. shard determinism (the scenario re-run on a sharded engine yields
//!    a bit-identical store, SLA rows and outputs — [`digest`]).
//!
//! Failing seeds are [`shrink()`]-able to a minimal spec and printed as a
//! ready-to-paste regression test ([`regression_snippet`]); pin those
//! tests in the crate that owns the bug. The `pingmesh-fuzz` binary
//! runs seed campaigns and the CI smoke gate (`scripts/ci.sh --smoke
//! fuzz`).
//!
//! Everything is deterministic: the harness draws from its own
//! [`rng::XorShift`] (independent of the netsim RNG it audits), so the
//! same seed always produces the same scenario, the same run, and the
//! same verdict — a failing seed from CI reproduces locally, bit for
//! bit.

pub mod digest;
pub mod oracle;
pub mod rng;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use digest::state_digest;
pub use oracle::Violation;
pub use run::{build_orchestrator, build_orchestrator_sharded, run_scenario, RunReport};
pub use scenario::ScenarioSpec;
pub use shrink::{regression_snippet, shrink};
