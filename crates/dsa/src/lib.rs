//! Data Storage and Analysis (DSA) — the Pingmesh analysis pipeline.
//!
//! The paper stores latency data in Cosmos and analyzes it with SCOPE
//! jobs on 10-minute / 1-hour / 1-day cadences, stores results in a SQL
//! database, and generates visualization, reports and alerts (§3.5); a
//! parallel Perfcounter Aggregator path delivers coarse counters with
//! 5-minute latency. This crate reproduces each piece:
//!
//! * [`store`] — append-only extent store (the Cosmos stand-in) that
//!   also folds every accepted batch into per-(stream, 10-min-window)
//!   partial aggregates at ingest; it holds records packed, 32 bytes each,
//!   and serves chunked scans that expand one extent run at a time,
//! * [`durable`] — the persistence engine under the store: write-ahead
//!   log, immutable segment files, a three-phase checkpoint (plan and
//!   commit under the caller's lock, the file writes outside it) that
//!   seals every open extent, so everything it covers is in a segment,
//!   with tombstone GC and deterministic crash recovery,
//! * [`compactor`] — the durable store's background durability loop: the
//!   group-commit fsyncs and the checkpoints of a store shared behind a
//!   lock, run on two threads, and the backpressure that holds an append
//!   while they are behind,
//! * [`agg`] — the mergeable window aggregation every job consumes
//!   (built once per record at ingest; coarser windows merge partials),
//!   including the network SLA — drop rate, P50, P99 — at server / pod /
//!   podset / DC / DC-pair / service scopes (§4.3),
//! * [`jobs`] — the job manager with 10-min / 1-h / 1-day cadences,
//! * [`pa`] — the fast perf-counter path,
//! * [`db`] — the results database feeding reports and alerts,
//! * [`alert`] — threshold alerting (drop rate > 1e-3, P99 > 5 ms),
//! * [`investigate`](mod@investigate) — the §4.3 troubleshooting
//!   drill-down (scale of a problem + concrete reproducible flows),
//! * [`detect`] — switch black-hole detection (§5.1), silent random
//!   packet-drop incident detection (§5.2), and latency-pattern
//!   classification (§6.3 / Figure 8),
//! * [`viz`] — the latency-pattern heatmap rendering.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod alert;
pub mod compactor;
pub mod db;
pub mod detect;
pub mod durable;
pub mod investigate;
pub mod jobs;
pub mod pa;
mod packed;
pub mod quality;
pub mod report;
pub mod store;
pub mod viz;

pub use agg::{PairKey, ScopeStats, WindowAggregate};
pub use alert::{Alert, AlertKind, Alerter};
pub use db::{ResultsDb, ScopeKey, SlaRow};
pub use detect::blackhole::{BlackholeDetector, BlackholeFinding, EscalationFinding, TorCandidate};
pub use detect::pattern::{classify_pattern, HeatmapMatrix, LatencyPattern};
pub use detect::silent::{SilentDropDetector, SilentDropFinding};
pub use durable::{
    unique_dir, CheckpointGc, CheckpointPlan, DirGuard, DurabilityStats, SegmentReader,
    WrittenCheckpoint,
};
pub use investigate::{investigate, Investigation, SuspectFlow};
pub use jobs::{JobKind, JobManager, JobTick, Pipeline, TickOutput};
pub use pa::PerfCounterAggregator;
pub use quality::{ExpectedPairs, QualityConfig, QualityReport, RatioSample};
pub use report::daily_report;
pub use store::{CosmosStore, StreamName, PARTIAL_WINDOW};
