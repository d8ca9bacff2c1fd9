//! Process-wide activity counters for this crate's core data structures.
//!
//! `pingmesh-types` sits below the observability crate in the dependency
//! graph, so it cannot register metrics itself. Instead it maintains
//! plain atomics here; `pingmesh-obs` bridges them into its registry as
//! callback gauges (`pingmesh_types_*`) the first time the registry is
//! touched. Increments are `Relaxed` — these are statistics, not
//! synchronization.

use std::sync::atomic::AtomicU64;

/// Latency histograms constructed ([`crate::LatencyHistogram::new`] and
/// the `Default` path both count).
pub static HISTOGRAMS_CREATED: AtomicU64 = AtomicU64::new(0);

/// Histogram pages alive now: one per octave a live histogram has held
/// a sample in (see [`crate::hist`]). Added when a page is allocated or a
/// histogram cloned, subtracted when a histogram drops, so this is a level
/// (`× 128 B` = the histograms' count bytes), not a running total.
pub static HISTOGRAM_PAGES: AtomicU64 = AtomicU64::new(0);

/// Histogram merge operations performed (DSA rollups are merge-heavy;
/// this tracks aggregation activity without touching the record path).
pub static HISTOGRAM_MERGES: AtomicU64 = AtomicU64::new(0);

/// RTT classifications counted by [`crate::AgentCounters::observe`]: one
/// per successful probe folded into agent counters. The DSA fold's
/// classifications are not counted ([`crate::counters::classify_rtt`] is
/// pure).
pub static RTTS_CLASSIFIED: AtomicU64 = AtomicU64::new(0);
