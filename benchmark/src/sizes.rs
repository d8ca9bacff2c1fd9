//! The size constants of the four workloads. They are frozen here, never
//! derived at run time; `--seconds` scales the measured work linearly
//! from the nominal [`RUN_SECONDS`].

/// `run_seconds` in BENCHMARK.json: what one run's measuring is sized for.
pub const RUN_SECONDS: u64 = 20;

/// How many times a run sets up (the median is `setup_s`).
pub const SETUP_REPEATS: usize = 3;

// --- sim_mesh: `scale.rs`'s first point, 5,120 servers in one DC.
pub const SIM_PODSETS: u32 = 8;
pub const SIM_PODS_PER_PODSET: u32 = 8;
pub const SIM_SERVERS_PER_POD: u32 = 80;
pub const SIM_LEAVES_PER_PODSET: u32 = 4;
pub const SIM_SPINES: u32 = 8;
pub const SIM_BORDERS: u32 = 2;
/// Generator cadence of `scale.rs` (paper default 10 s / 30 s).
pub const SIM_INTRA_POD_SECS: u64 = 120;
pub const SIM_INTRA_DC_SECS: u64 = 600;
/// Simulated minutes per engine at the nominal run length.
pub const SIM_MINUTES: u64 = 20;

// --- ingest_durable.
/// `AgentConfig::default().upload_batch_records`.
pub const INGEST_BATCH_RECORDS: usize = 2_000;
pub const INGEST_BATCHES: usize = 1_500;
pub const INGEST_WINDOWS: u64 = 6;
pub const INGEST_UPLOADERS: usize = 2;

// --- query_dashboard.
pub const DASH_WINDOWS: u64 = 24;
pub const DASH_RECORDS_PER_WINDOW: usize = 50_000;
pub const DASH_SEED_BATCH: usize = 500;
pub const DASH_CONNS: usize = 2;
pub const DASH_DEPTH: usize = 16;
/// Trickle appender: records per append, and the pause between appends.
pub const DASH_TRICKLE_RECORDS: usize = 20;
pub const DASH_TRICKLE_MS: u64 = 250;
/// Phase A (closed loop) and phase B (open loop) lengths in seconds, at
/// the nominal run length. The traced run adds `low` and `high`.
pub const DASH_A_WARM_SECS: f64 = 0.5;
pub const DASH_A_SECS: f64 = 6.0;
pub const DASH_B_WARM_SECS: f64 = 1.0;
pub const DASH_B_SECS: f64 = 8.0;
pub const DASH_B_SIDE_SECS: f64 = 5.0;
/// Phase-B total rates in requests per second: about 10 / 30 / 60 % of
/// phase-A capacity as measured once on the reference box, rounded and
/// frozen. Never derived at run time.
pub const DASH_RATE_LOW: f64 = 8_000.0;
pub const DASH_RATE_MID: f64 = 24_000.0;
pub const DASH_RATE_HIGH: f64 = 48_000.0;

// --- query_churn.
pub const CHURN_FROZEN_WINDOWS: u64 = 6;
pub const CHURN_RECORDS_PER_WINDOW: usize = 50_000;
pub const CHURN_UPLOAD_RECORDS: usize = 200;
pub const CHURN_UPLOAD_EVERY_MS: u64 = 5;
pub const CHURN_FRESH_EVERY: u64 = 20;
pub const CHURN_CONNS: usize = 2;
/// Seconds of churn at the nominal run length, the first of them warm-up.
pub const CHURN_SECS: f64 = 20.0;
pub const CHURN_WARM_SECS: f64 = 0.5;
