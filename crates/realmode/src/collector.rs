//! The record collector: Cosmos's upload front-end over real HTTP.
//!
//! "The Pingmesh Agent periodically uploads the aggregated records to
//! Cosmos. Similar to the Pingmesh Controller, the front-end of Cosmos
//! uses load-balancer and VIP to scale out." (§3.5)
//!
//! Endpoints:
//!
//! * `POST /upload` — body: one WAL append frame holding the batch,
//!   `content-type:` [`UPLOAD_CONTENT_TYPE`] — the store's 64-byte record
//!   codec, written by `dsa::durable::encode_upload_frame_into` and read by
//!   the reader WAL recovery uses, so one codec is on the wire, in the WAL
//!   and in segments. `200` on success (`empty` for zero records); `400`
//!   for a body that does not decode; `503` while the collector is not
//!   accepting or the WAL has failed closed (drives the agents'
//!   retry-then-discard path). A body without that content type is read
//!   as a JSON array of [`ProbeRecord`]s: the compat branch, kept only
//!   because the frozen benchmark's traced staged replay posts JSON to
//!   [`Collector::respond`]; it goes with that caller. Bytes and malformed
//!   bodies are counted per codec (`codec="frame"|"json"`). An upload
//!   that finds the background compactor behind — an acknowledged byte
//!   unsynced for 500 ms, or a backlog of checkpoints in the live WAL —
//!   waits for it before its `200`.
//! * `GET /stats` — JSON `{records, logical_bytes, physical_bytes}`.
//! * `GET /metrics` — Prometheus-style text encoding of the global
//!   [`pingmesh_obs`] registry snapshot.
//! * `GET /events?since=SEQ` — JSON-lines dump of buffered events with
//!   sequence numbers greater than `SEQ` (`since=0` or no query: all
//!   currently buffered events). The response carries exact drop
//!   accounting in `x-pingmesh-events-dropped` (lifetime ring drops) and
//!   `x-pingmesh-events-last-seq` headers, so a scraper can tell loss
//!   from quiet.
//! * `GET /healthz` — machine-readable pipeline health: per-stage
//!   provenance span counts/latencies plus data-quality SLO status and
//!   (for durable stores) WAL/segment durability statistics.
//! * `GET /slo` — just the SLO evaluations, as a JSON array.
//!
//! The collector's store is **durable by default**: [`Collector::new`]
//! roots a WAL + segment directory in a fresh scratch path (removed when
//! the last clone drops) so every acknowledged upload survives a crash.
//! [`Collector::in_memory`] opts out; [`Collector::durable_at`] pins the
//! data directory for an externally managed lifetime. The
//! `crash_and_recover*` chaos hooks rebuild the store from disk alone,
//! exactly as a restarted process would.

use parking_lot::Mutex;
use pingmesh_dsa::durable::{append_frame_len, decode_upload_frame, encode_upload_frame_into};
use pingmesh_dsa::quality::{self, ExpectedPairs, QualityConfig, RatioSample};
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_dsa::{unique_dir, DirGuard, DurabilityStats};
use pingmesh_httpx::{CallError, Request, Response};
use pingmesh_obs::slo::{self, SloKind, SloStatus};
use pingmesh_obs::{Counter, SampleValue};
use pingmesh_types::{PingmeshError, ProbeRecord, SimTime};
use serde::Serialize;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tokio::net::TcpListener;

/// Group commit: fsync the WAL once this many acknowledged bytes sit
/// unsynced, so upload throughput amortizes the sync cost. An upload that
/// crosses it wakes the compactor, which runs the sync.
const GROUP_COMMIT_BYTES: u64 = 4 * 1024 * 1024;

/// Group commit: the crash exposure bound. No upload is acknowledged
/// while the oldest unsynced acknowledged byte is older than this (µs);
/// the compactor syncs at half of it, so only a sync that stalls makes an
/// upload wait.
const GROUP_COMMIT_LAG_US: u64 = 500_000;

/// How often the background compactor wakes unasked to check the WAL.
/// Each check is one lock acquisition and a stat read — cheap against a
/// 500 ms group-commit lag bound.
const COMPACTOR_POLL: Duration = Duration::from_millis(20);

/// The longest an upload waits out a backlog before it is acknowledged
/// anyway: its records are already logged, and only a compactor that
/// fails pass after pass gets this far behind.
const BACKLOG_WAIT_MAX: Duration = Duration::from_secs(5);

/// The content type of an upload body that is one append frame.
pub const UPLOAD_CONTENT_TYPE: &str = "application/x-pingmesh-records";

/// Per-codec upload counters, resolved once with both label values so
/// `/metrics` always shows the pair and the cardinality stays 2.
struct UploadCodec {
    /// Bytes of upload bodies whose records were stored.
    body_bytes: Arc<Counter>,
    /// Upload bodies refused with `400`.
    malformed: Arc<Counter>,
}

struct UploadMetrics {
    frame: UploadCodec,
    json: UploadCodec,
}

fn upload_metrics() -> &'static UploadMetrics {
    static M: OnceLock<UploadMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pingmesh_obs::registry();
        let codec = |name| UploadCodec {
            body_bytes: r.counter_with(
                "pingmesh_realmode_upload_body_bytes_total",
                &[("codec", name)],
            ),
            malformed: r.counter_with(
                "pingmesh_realmode_uploads_malformed_total",
                &[("codec", name)],
            ),
        };
        UploadMetrics {
            frame: codec("frame"),
            json: codec("json"),
        }
    })
}

/// Collector statistics, served on `GET /stats`.
#[derive(Debug, Clone, Copy, Serialize, serde::Deserialize)]
pub struct CollectorStats {
    /// Records stored.
    pub records: u64,
    /// Bytes before replication.
    pub logical_bytes: u64,
    /// Bytes including replication.
    pub physical_bytes: u64,
}

/// One SLO evaluation in the `/healthz` and `/slo` JSON surfaces.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct SloJson {
    /// SLO kind: `coverage`, `completeness`, `freshness`, or
    /// `wal_flush_lag`.
    pub slo: String,
    /// Measured value (ratio, or age in µs for freshness).
    pub value: f64,
    /// Configured target.
    pub target: f64,
    /// Whether the value meets the target.
    pub healthy: bool,
    /// Error-budget burn rate (1.0 = exactly at target).
    pub burn_rate: f64,
}

/// One pipeline stage in the `/healthz` JSON surface.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct StageHealth {
    /// Stage name (one of [`pingmesh_obs::trace::STAGES`]).
    pub stage: String,
    /// Provenance spans recorded for this stage so far.
    pub spans: u64,
    /// Median stage duration, µs (0 until a span lands).
    pub p50_us: u64,
    /// 99th-percentile stage duration, µs (0 until a span lands).
    pub p99_us: u64,
}

/// The machine-readable health report served on `GET /healthz`.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct HealthReport {
    /// True when every evaluated SLO is within target.
    pub healthy: bool,
    /// Every pipeline stage, in pipeline order, with span statistics.
    pub stages: Vec<StageHealth>,
    /// The data-quality SLO evaluations.
    pub slos: Vec<SloJson>,
    /// Durable-store statistics (`None` when running in-memory).
    pub durability: Option<DurabilityStats>,
}

/// Mutable SLO inputs shared between the watchdog (which installs
/// expectations) and the HTTP surface (which evaluates them on demand).
struct SloState {
    cfg: QualityConfig,
    expected: Option<ExpectedPairs>,
    /// Windowed `(stored, produced)` record counts, fed by the watchdog
    /// (only it can see agent-side production counters).
    completeness: Option<(u64, u64)>,
}

/// The collector: a shared store behind an HTTP front-end.
#[derive(Clone)]
pub struct Collector {
    store: Arc<Mutex<CosmosStore>>,
    accepting: Arc<AtomicBool>,
    /// Reference point for freshness: record timestamps are agent-epoch
    /// micros, and agents start moments after the collector, so ages
    /// measured against this epoch overestimate by the startup skew —
    /// pick freshness targets with a margin for it.
    epoch: Instant,
    slo: Arc<Mutex<SloState>>,
    /// Keeps the default scratch data directory alive across clones;
    /// removed from disk when the last clone drops. `None` when the
    /// store is in-memory or the caller owns the directory.
    _data_dir: Option<Arc<DirGuard>>,
    /// WAL-growth threshold (bytes) for background compaction.
    compact_threshold: Arc<AtomicU64>,
    /// The background compactor, shared across clones and joined when
    /// the last clone drops. `None` for in-memory stores.
    compactor: Option<Arc<Compactor>>,
    /// Held across each compactor pass and by the crash hooks, so a
    /// simulated crash never lands between a live checkpoint's phases
    /// (a real crash stops the compactor with everything else).
    compaction: Arc<Mutex<()>>,
}

/// Owns the background compaction threads, off the upload request path:
/// one runs group-commit fsyncs, the other checkpoints, so a long
/// checkpoint never holds up a sync. Neither holds the store lock for
/// disk IO: a sync clones the WAL handles under the lock and fsyncs them
/// outside, and a checkpoint holds the lock only to plan (rotate the WAL,
/// seal the open extents, snapshot the extents) and to commit (rename the
/// manifest); its segment and fsync work runs with the lock released,
/// beside uploads and readers. Uploads that get too far ahead of either wait for
/// it ([`Compactor::wait_out_backlog`]).
struct Compactor {
    stop: Arc<AtomicBool>,
    /// The group-commit thread; an upload that crossed
    /// [`GROUP_COMMIT_BYTES`] unparks it.
    syncer: std::thread::Thread,
    /// The checkpoint thread.
    checkpointer: std::thread::Thread,
    /// Notified after every pass of either thread.
    progress: Arc<(std::sync::Mutex<()>, std::sync::Condvar)>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Compactor {
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.syncer.unpark();
        self.checkpointer.unpark();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }

    /// Backpressure, with the store lock released: holds an upload while
    /// an acknowledged byte has waited [`GROUP_COMMIT_LAG_US`] for its
    /// sync or the live WAL holds a backlog of checkpoints, until the
    /// compactor catches up, stops, or [`BACKLOG_WAIT_MAX`] passes. Only
    /// the compactor fsyncs and checkpoints, so without this uploads
    /// could outrun both.
    fn wait_out_backlog(&self, store: &Mutex<CosmosStore>, threshold: u64) {
        let started = Instant::now();
        let (lock, progress) = &*self.progress;
        while !self.stop.load(Ordering::SeqCst)
            && started.elapsed() < BACKLOG_WAIT_MAX
            && backlogged(&store.lock(), threshold)
        {
            self.syncer.unpark();
            self.checkpointer.unpark();
            let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
            let _ = progress.wait_timeout(guard, COMPACTOR_POLL);
        }
        pingmesh_obs::registry()
            .histogram("pingmesh_realmode_upload_backlog_wait_us")
            .record_wall(started.elapsed());
    }

    /// Runs `pass` until stopped, parked between passes, waking every
    /// waiter after each.
    fn run(
        stop: &AtomicBool,
        progress: &(std::sync::Mutex<()>, std::sync::Condvar),
        mut pass: impl FnMut(),
    ) {
        while !stop.load(Ordering::SeqCst) {
            pass();
            progress.1.notify_all();
            std::thread::park_timeout(COMPACTOR_POLL);
        }
    }
}

/// Whether an upload should wait for the compactor: see
/// [`Compactor::wait_out_backlog`].
fn backlogged(store: &CosmosStore, threshold: u64) -> bool {
    store
        .durability_stats()
        .is_some_and(|d| d.flush_lag_us >= GROUP_COMMIT_LAG_US)
        || store.checkpoint_backlogged(threshold)
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One checkpoint thread pass: a checkpoint if the WAL has outgrown
/// `threshold`, with the store lock released for its IO. Failures
/// surface via the store's IO counters and fail-closed flag — and a
/// failed-closed WAL is always checkpoint-due, so the next pass retries
/// the heal.
fn checkpoint_pass(store: &Mutex<CosmosStore>, compaction: &Mutex<()>, threshold: u64) {
    let _pass = compaction.lock();
    let Ok(Some(pass)) = CosmosStore::checkpoint_shared(store, threshold) else {
        return;
    };
    if pass.committed {
        let registry = pingmesh_obs::registry();
        registry
            .counter("pingmesh_realmode_background_checkpoints_total")
            .inc();
        // How long this checkpoint kept uploads and readers out of the
        // store, and how long it wrote beside them.
        registry
            .histogram("pingmesh_store_checkpoint_lock_held_us")
            .record_wall(pass.locked);
        registry
            .histogram("pingmesh_store_checkpoint_write_us")
            .record_wall(pass.writing);
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector over a durable store rooted in a fresh scratch
    /// directory (removed when the last clone drops). Acknowledged
    /// uploads are WAL-logged before they land in memory, so a crashed
    /// collector recovers them. Falls back to a purely in-memory store
    /// (counting `pingmesh_realmode_collector_durable_fallback_total`)
    /// if the scratch directory cannot be initialised.
    pub fn new() -> Self {
        let dir = unique_dir("collector");
        match Self::open_store(&dir) {
            Ok(store) => Self::from_store(store, Some(Arc::new(DirGuard::new(dir)))),
            Err(_) => {
                pingmesh_obs::registry()
                    .counter("pingmesh_realmode_collector_durable_fallback_total")
                    .inc();
                Self::in_memory()
            }
        }
    }

    /// A collector over a purely in-memory store: no WAL, no segments,
    /// nothing survives a crash. For benchmarks and tests that measure
    /// the store itself rather than its durability.
    pub fn in_memory() -> Self {
        Self::from_store(CosmosStore::with_defaults(), None)
    }

    /// A collector over a durable store rooted at `dir`, which the
    /// caller owns (nothing is removed on drop). Opening an existing
    /// directory runs crash recovery first.
    pub fn durable_at(dir: &Path) -> io::Result<Self> {
        Ok(Self::from_store(Self::open_store(dir)?, None))
    }

    fn open_store(dir: &Path) -> io::Result<CosmosStore> {
        let (cap, repl) = (
            CosmosStore::DEFAULT_EXTENT_CAP,
            CosmosStore::DEFAULT_REPLICATION,
        );
        CosmosStore::durable(dir, cap, repl)
    }

    fn from_store(store: CosmosStore, data_dir: Option<Arc<DirGuard>>) -> Self {
        upload_metrics();
        let durable = store.durable_dir().is_some();
        let store = Arc::new(Mutex::new(store));
        let compact_threshold = Arc::new(AtomicU64::new(pingmesh_dsa::store::WAL_CHECKPOINT_BYTES));
        let compaction = Arc::new(Mutex::new(()));
        let compactor = durable.then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let progress = Arc::new((std::sync::Mutex::new(()), std::sync::Condvar::new()));
            let syncer = {
                let (store, stop, progress) =
                    (Arc::clone(&store), Arc::clone(&stop), Arc::clone(&progress));
                std::thread::spawn(move || {
                    Compactor::run(&stop, &progress, || {
                        let _ = CosmosStore::sync_wal_shared(
                            &store,
                            GROUP_COMMIT_BYTES,
                            GROUP_COMMIT_LAG_US / 2,
                        );
                    })
                })
            };
            let checkpointer = {
                let (store, compaction, stop, progress, threshold) = (
                    Arc::clone(&store),
                    Arc::clone(&compaction),
                    Arc::clone(&stop),
                    Arc::clone(&progress),
                    Arc::clone(&compact_threshold),
                );
                std::thread::spawn(move || {
                    Compactor::run(&stop, &progress, || {
                        checkpoint_pass(&store, &compaction, threshold.load(Ordering::SeqCst))
                    })
                })
            };
            Arc::new(Compactor {
                stop,
                syncer: syncer.thread().clone(),
                checkpointer: checkpointer.thread().clone(),
                progress,
                threads: Mutex::new(vec![syncer, checkpointer]),
            })
        });
        Self {
            store,
            accepting: Arc::new(AtomicBool::new(true)),
            epoch: Instant::now(),
            slo: Arc::new(Mutex::new(SloState {
                cfg: QualityConfig::default(),
                expected: None,
                completeness: None,
            })),
            _data_dir: data_dir,
            compact_threshold,
            compactor,
            compaction,
        }
    }

    /// Lowers (or raises) the WAL-growth threshold that triggers
    /// background compaction. Tests use a small value so a checkpoint
    /// becomes due after a few uploads.
    pub fn set_compaction_threshold(&self, bytes: u64) {
        self.compact_threshold.store(bytes, Ordering::SeqCst);
    }

    /// Stops the background compactor (joining its threads). After this,
    /// nothing compacts or group-commits the store — the upload path never
    /// does, and no longer waits for it — so the WAL grows, synced only by
    /// the OS, until the process restarts. An ops escape hatch, and how
    /// the append-path regression test proves uploads don't compact.
    pub fn stop_background_compaction(&self) {
        if let Some(c) = &self.compactor {
            c.stop();
        }
    }

    /// Chaos hook: simulates a process crash right now. All in-memory
    /// state is discarded and the store is rebuilt from disk alone
    /// (manifest + segments + WAL replay), exactly as a restarted
    /// collector would. Every holder of the shared store handle observes
    /// the recovered state, and the mutation-epoch handle is adopted so
    /// read tiers revalidate instead of serving dangling fingerprints.
    /// Returns `Ok(false)` (doing nothing) for in-memory collectors. The
    /// store is down (locked) while it recovers, as a restarting
    /// collector's would be.
    pub fn crash_and_recover(&self) -> io::Result<bool> {
        let _pass = self.compaction.lock();
        self.recover()
    }

    /// The restart behind every crash hook; the caller holds `compaction`.
    fn recover(&self) -> io::Result<bool> {
        let mut store = self.store.lock();
        let Some(dir) = store.durable_dir().map(Path::to_path_buf) else {
            return Ok(false);
        };
        let (cap, repl) = (store.extent_cap(), store.replication());
        let epoch = store.epoch_handle();
        *store = CosmosStore::recover_with(&dir, cap, repl, Some(epoch))?;
        Ok(true)
    }

    /// Chaos hook: crash mid-append — leaves a torn, never-acknowledged
    /// WAL frame for `records` at the log tail, then recovers. The torn
    /// tail must be truncated away: it was never acknowledged to any
    /// agent, so losing it loses nothing.
    pub fn crash_and_recover_mid_append(&self, records: &[ProbeRecord]) -> io::Result<bool> {
        let _pass = self.compaction.lock();
        if !records.is_empty() {
            let mut store = self.store.lock();
            if store.durable_dir().is_none() {
                return Ok(false);
            }
            let stream = StreamName {
                dc: records[0].src_dc,
            };
            store.simulate_torn_append(stream, records)?;
        }
        self.recover()
    }

    /// Chaos hook: crash mid-compaction — runs a real checkpoint's plan
    /// and write phases, then drops it uncommitted, so the next
    /// generation's segments and manifest are on disk beside a WAL rotated
    /// past the old one while the manifest still names the old generation;
    /// then recovers. Recovery must follow the manifest, replay both WAL
    /// files (sealing at the boundary, as the plan did), and
    /// garbage-collect the orphans.
    pub fn crash_and_recover_mid_compaction(&self) -> io::Result<bool> {
        let _pass = self.compaction.lock();
        let plan = self.store.lock().plan_checkpoint()?;
        let Some(plan) = plan else {
            return Ok(false);
        };
        drop(plan.write()?);
        self.recover()
    }

    /// Replaces the data-quality targets used by `/healthz` and `/slo`.
    pub fn set_quality_config(&self, cfg: QualityConfig) {
        self.slo.lock().cfg = cfg;
    }

    /// Installs the expected pod-pair set, enabling the coverage SLO.
    pub fn set_expected_pairs(&self, expected: ExpectedPairs) {
        self.slo.lock().expected = Some(expected);
    }

    /// Updates the windowed completeness ledger: `stored` records that
    /// reached the store out of `produced` records agents emitted.
    pub fn set_completeness(&self, stored: u64, produced: u64) {
        self.slo.lock().completeness = Some((stored, produced));
    }

    /// Evaluates the data-quality SLOs against the live store right now.
    /// Coverage requires [`Self::set_expected_pairs`], completeness
    /// requires [`Self::set_completeness`]; freshness always evaluates
    /// (an empty store counts as stale since the epoch). Publishes the
    /// `pingmesh_slo_*` gauges as a side effect.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        let now = SimTime(self.epoch.elapsed().as_micros() as u64);
        let state = self.slo.lock();
        let store = self.store.lock();
        let mut out = Vec::with_capacity(4);
        if let Some(expected) = &state.expected {
            let from = now - state.cfg.coverage_horizon;
            let value = quality::coverage(&store, expected, from, now).value();
            out.push(slo::evaluate(
                SloKind::Coverage,
                value,
                state.cfg.coverage_target,
            ));
        }
        if let Some((stored, produced)) = state.completeness {
            let ratio = RatioSample {
                num: stored.min(produced),
                den: produced,
            };
            out.push(slo::evaluate(
                SloKind::Completeness,
                ratio.value(),
                state.cfg.completeness_target,
            ));
        }
        let (worst_age, _per_stream) = quality::freshness(&store, now);
        out.push(slo::evaluate(
            SloKind::Freshness,
            worst_age as f64,
            state.cfg.freshness_target.as_micros() as f64,
        ));
        if let Some(d) = store.durability_stats() {
            // Crash exposure: how old the oldest acknowledged-but-
            // unsynced WAL byte is. In-memory stores skip the SLO —
            // everything is crash-exposed there by design.
            out.push(slo::evaluate(
                SloKind::WalFlushLag,
                d.flush_lag_us as f64,
                state.cfg.wal_flush_lag_target.as_micros() as f64,
            ));
        }
        slo::publish(&out);
        out
    }

    /// Builds the `/healthz` payload: SLO status plus a per-stage view of
    /// the provenance-span histograms in the global registry. Stages with
    /// no spans yet report zero counts rather than disappearing, so a
    /// dashboard always renders the full pipeline.
    pub fn health_report(&self) -> HealthReport {
        let slos: Vec<SloJson> = self
            .slo_statuses()
            .iter()
            .map(|s| SloJson {
                slo: s.kind.as_str().to_string(),
                value: s.value,
                target: s.target,
                healthy: s.healthy,
                burn_rate: s.burn_rate,
            })
            .collect();
        let snap = pingmesh_obs::registry().snapshot();
        let stages = pingmesh_obs::trace::STAGES
            .iter()
            .map(|&stage| {
                let sample = snap.samples.iter().find(|(id, _)| {
                    id.name == "pingmesh_stage_duration_us"
                        && id.labels.iter().any(|(k, v)| k == "stage" && v == stage)
                });
                match sample {
                    Some((_, SampleValue::Histogram(h))) => StageHealth {
                        stage: stage.to_string(),
                        spans: h.count,
                        p50_us: h.p50_us.unwrap_or(0),
                        p99_us: h.p99_us.unwrap_or(0),
                    },
                    _ => StageHealth {
                        stage: stage.to_string(),
                        spans: 0,
                        p50_us: 0,
                        p99_us: 0,
                    },
                }
            })
            .collect();
        let healthy = slos.iter().all(|s| s.healthy);
        let durability = self.store.lock().durability_stats();
        HealthReport {
            healthy,
            stages,
            slos,
            durability,
        }
    }

    /// The shared store (scan it for analysis).
    pub fn store(&self) -> &Arc<Mutex<CosmosStore>> {
        &self.store
    }

    /// Simulates a storage outage: uploads get `503` until re-enabled.
    pub fn set_accepting(&self, accepting: bool) {
        self.accepting.store(accepting, Ordering::SeqCst);
    }

    /// Current statistics.
    pub fn stats(&self) -> CollectorStats {
        let store = self.store.lock();
        CollectorStats {
            records: store.record_count(),
            logical_bytes: store.logical_bytes(),
            physical_bytes: store.physical_bytes(),
        }
    }

    /// Handles one parsed request (pure; unit-testable without sockets).
    pub fn respond(&self, req: &Request) -> Response {
        let registry = pingmesh_obs::registry();
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (req.path.as_str(), None),
        };
        // Fixed route set keeps metric label cardinality bounded even when
        // clients request arbitrary paths.
        let route = match path {
            "/upload" => "upload",
            "/stats" => "stats",
            "/metrics" => "metrics",
            "/events" => "events",
            "/healthz" => "healthz",
            "/slo" => "slo",
            _ => "other",
        };
        registry
            .counter_with("pingmesh_realmode_requests_total", &[("route", route)])
            .inc();
        match (req.method.as_str(), path) {
            ("POST", "/upload") => {
                if !self.accepting.load(Ordering::SeqCst) {
                    registry
                        .counter("pingmesh_realmode_uploads_rejected_total")
                        .inc();
                    return Response::unavailable();
                }
                let is_frame = req
                    .header("content-type")
                    .is_some_and(|v| v.trim().eq_ignore_ascii_case(UPLOAD_CONTENT_TYPE));
                let m = upload_metrics();
                let (codec, parsed) = if is_frame {
                    (&m.frame, decode_upload_frame(&req.body).ok())
                } else {
                    // The compat branch: the frozen benchmark's traced
                    // staged replay still posts JSON here.
                    (&m.json, serde_json::from_slice(&req.body).ok())
                };
                let Some(records) = parsed else {
                    codec.malformed.inc();
                    return Response::bad_request("malformed record batch");
                };
                if records.is_empty() {
                    return Response::ok(b"empty".to_vec());
                }
                // The part of an upload that is neither codec nor store
                // work: waiting behind whoever holds the store.
                let decoded = Instant::now();
                let mut store = self.store.lock();
                registry
                    .histogram("pingmesh_realmode_upload_lock_wait_us")
                    .record_wall(decoded.elapsed());
                // Batches are per-agent and agents live in one DC; the
                // first record names the stream.
                let stream = StreamName {
                    dc: records[0].src_dc,
                };
                // The upload timestamp is the newest record's; the real
                // store cares only about content timestamps.
                let t = records.iter().map(|r| r.ts).max().unwrap_or(SimTime::ZERO);
                if !store.append(stream, &records, t) {
                    // The WAL failed closed: the batch was NOT
                    // acknowledged and the agent's retry-then-discard path
                    // takes over. Never claim "stored" for data that would
                    // not survive a crash.
                    registry
                        .counter("pingmesh_realmode_uploads_rejected_total")
                        .inc();
                    return Response::unavailable();
                }
                let sync_due = store
                    .durability_stats()
                    .is_some_and(|d| d.unsynced_bytes >= GROUP_COMMIT_BYTES);
                let threshold = self.compact_threshold.load(Ordering::SeqCst);
                let behind = backlogged(&store, threshold);
                drop(store);
                registry
                    .counter("pingmesh_realmode_uploaded_records_total")
                    .add(records.len() as u64);
                codec.body_bytes.add(req.body.len() as u64);
                // Group commit: once the unsynced tail is big enough that
                // one fsync amortizes across many acks, wake the compactor
                // to run it off the lock. Syncs and checkpoints never run
                // on a request thread; an upload that got too far ahead
                // of them waits before its ack.
                if let Some(c) = &self.compactor {
                    if sync_due {
                        c.syncer.unpark();
                    }
                    if behind {
                        c.wait_out_backlog(&self.store, threshold);
                    }
                }
                Response::ok(b"stored".to_vec())
            }
            ("GET", "/stats") => {
                let Ok(body) = serde_json::to_vec(&self.stats()) else {
                    return Response::internal_error("stats serialize failed");
                };
                let mut resp = Response::ok(body);
                resp.headers
                    .push(("content-type".into(), "application/json".into()));
                resp
            }
            ("GET", "/metrics") => {
                let body = pingmesh_obs::encode::snapshot_to_prometheus(&registry.snapshot());
                let mut resp = Response::ok(body.into_bytes());
                resp.headers
                    .push(("content-type".into(), "text/plain; version=0.0.4".into()));
                resp
            }
            ("GET", "/events") => {
                // `?since=SEQ` returns only events with seq > SEQ, so a
                // scraper can poll incrementally. Malformed values are 400
                // rather than silently treated as zero.
                let since = match query
                    .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("since=")))
                {
                    Some(v) => match v.parse::<u64>() {
                        Ok(n) => n,
                        Err(_) => return Response::bad_request("bad since= value"),
                    },
                    None => 0,
                };
                let ring = pingmesh_obs::events();
                let evs = ring.snapshot_since(since);
                let body = pingmesh_obs::encode::events_to_jsonl(&evs);
                let mut resp = Response::ok(body.into_bytes());
                resp.headers
                    .push(("content-type".into(), "application/x-ndjson".into()));
                // Exact drop accounting: with these two headers a client
                // can compute how many events it can never see as
                // (last_seq − since) − returned_count, and attribute them
                // to ring drops via the lifetime drop counter delta.
                resp.headers.push((
                    "x-pingmesh-events-dropped".into(),
                    ring.dropped().to_string(),
                ));
                resp.headers.push((
                    "x-pingmesh-events-last-seq".into(),
                    ring.last_seq().to_string(),
                ));
                resp
            }
            ("GET", "/healthz") => {
                let Ok(body) = serde_json::to_vec(&self.health_report()) else {
                    return Response::internal_error("healthz serialize failed");
                };
                let mut resp = Response::ok(body);
                resp.headers
                    .push(("content-type".into(), "application/json".into()));
                resp
            }
            ("GET", "/slo") => {
                let Ok(body) = serde_json::to_vec(&self.health_report().slos) else {
                    return Response::internal_error("slo serialize failed");
                };
                let mut resp = Response::ok(body);
                resp.headers
                    .push(("content-type".into(), "application/json".into()));
                resp
            }
            _ => Response::not_found(),
        }
    }
}

/// Runs the collector HTTP service until dropped.
pub async fn serve_collector(listener: TcpListener, collector: Collector) {
    pingmesh_httpx::serve(listener, move |req| collector.respond(req)).await
}

/// Agent-side upload client: POSTs a record batch to the collector as
/// one append frame. Bounded by the httpx default deadline per phase.
pub async fn upload_records(
    addr: SocketAddr,
    records: &[ProbeRecord],
) -> Result<(), PingmeshError> {
    upload_records_with(addr, records, pingmesh_httpx::DEFAULT_IO_TIMEOUT).await
}

/// Like [`upload_records`], with an explicit per-phase `deadline`:
/// connect, request write, and response read each get at most `deadline`,
/// so a stalled or black-holed collector can never wedge an agent's
/// upload path. Deadline expiry surfaces as [`PingmeshError::Timeout`].
pub async fn upload_records_with(
    addr: SocketAddr,
    records: &[ProbeRecord],
    deadline: std::time::Duration,
) -> Result<(), PingmeshError> {
    let resp = collector_call(addr, &upload_request(records), deadline).await?;
    if resp.status == 200 {
        Ok(())
    } else {
        Err(PingmeshError::UploadFailed(format!(
            "collector status {}",
            resp.status
        )))
    }
}

/// An upload of `records`: one append frame, sized exactly, typed as
/// [`UPLOAD_CONTENT_TYPE`].
fn upload_request(records: &[ProbeRecord]) -> Request {
    let mut body = Vec::with_capacity(append_frame_len(records.len()));
    encode_upload_frame_into(&mut body, records);
    let mut req = Request::post("/upload", body);
    req.headers
        .push(("content-type".into(), UPLOAD_CONTENT_TYPE.into()));
    req
}

/// Fetches collector statistics (default deadline per phase).
pub async fn fetch_stats(addr: SocketAddr) -> Result<CollectorStats, PingmeshError> {
    fetch_stats_with(addr, pingmesh_httpx::DEFAULT_IO_TIMEOUT).await
}

/// Like [`fetch_stats`], with an explicit per-phase `deadline`.
pub async fn fetch_stats_with(
    addr: SocketAddr,
    deadline: std::time::Duration,
) -> Result<CollectorStats, PingmeshError> {
    let resp = collector_call(addr, &Request::get("/stats"), deadline).await?;
    serde_json::from_slice(&resp.body).map_err(|e| PingmeshError::Parse(e.to_string()))
}

async fn collector_call(
    addr: SocketAddr,
    req: &Request,
    deadline: std::time::Duration,
) -> Result<Response, PingmeshError> {
    pingmesh_httpx::call(addr, req, deadline)
        .await
        .map_err(|e| match e {
            CallError::Timeout(phase) => {
                PingmeshError::Timeout(format!("{} {phase}, collector {addr}", req.path))
            }
            other => PingmeshError::UploadFailed(other.to_string()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_httpx::{Conn, CHUNKED_FLUSH_THRESHOLD};
    use pingmesh_types::{
        DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, QosClass, ServerId, SimDuration,
    };
    use tokio::net::TcpStream;

    fn rec(ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts: SimTime(ts),
            src: ServerId(0),
            dst: ServerId(1),
            src_pod: PodId(0),
            dst_pod: PodId(0),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(0),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(123),
            },
        }
    }

    #[test]
    fn respond_upload_and_stats() {
        let c = Collector::new();
        let batch = vec![rec(1), rec(2)];
        let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        assert_eq!(c.stats().records, 2);
        let stats_resp = c.respond(&Request::get("/stats"));
        let stats: CollectorStats = serde_json::from_slice(&stats_resp.body).unwrap();
        assert_eq!(stats.records, 2);
        assert!(stats.physical_bytes >= stats.logical_bytes);
    }

    /// Every arm of every enum and both ends of every integer, from a
    /// seeded SplitMix64.
    fn random_records(seed: u64, n: usize) -> Vec<ProbeRecord> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut int = |max: u64| match next() % 4 {
            0 => 0,
            1 => max,
            _ => next() & max,
        };
        (0..n)
            .map(|_| ProbeRecord {
                ts: SimTime(int(u64::MAX)),
                src: ServerId(int(u32::MAX.into()) as u32),
                dst: ServerId(int(u32::MAX.into()) as u32),
                src_pod: PodId(int(u32::MAX.into()) as u32),
                dst_pod: PodId(int(u32::MAX.into()) as u32),
                src_podset: PodsetId(int(u32::MAX.into()) as u32),
                dst_podset: PodsetId(int(u32::MAX.into()) as u32),
                src_dc: DcId(int(u32::MAX.into()) as u32),
                dst_dc: DcId(int(u32::MAX.into()) as u32),
                kind: match int(3) {
                    0 => ProbeKind::TcpSyn,
                    1 => ProbeKind::TcpPayload(int(u32::MAX.into()) as u32),
                    _ => ProbeKind::Http,
                },
                qos: if int(1) == 0 {
                    QosClass::High
                } else {
                    QosClass::Low
                },
                src_port: int(u16::MAX.into()) as u16,
                dst_port: int(u16::MAX.into()) as u16,
                outcome: match int(3) {
                    0 => ProbeOutcome::Timeout,
                    1 => ProbeOutcome::Refused,
                    _ => ProbeOutcome::Success {
                        rtt: SimDuration::from_micros(int(u64::MAX)),
                    },
                },
            })
            .collect()
    }

    fn stored(c: &Collector) -> Vec<ProbeRecord> {
        let store = c.store().lock();
        store
            .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }

    #[test]
    fn frame_upload_stores_the_records_sent() {
        let c = Collector::new();
        let batch: Vec<ProbeRecord> = (0..300).map(rec).collect();
        let resp = c.respond(&upload_request(&batch));
        assert_eq!((resp.status, &resp.body[..]), (200, &b"stored"[..]));
        assert_eq!(stored(&c), batch);
    }

    #[test]
    fn frame_with_a_flipped_payload_byte_gets_400_and_changes_nothing() {
        let c = Collector::new();
        assert_eq!(c.respond(&upload_request(&[rec(1)])).status, 200);
        let (records, epoch) = (c.stats().records, c.store().lock().epoch());
        let mut req = upload_request(&(0..10).map(rec).collect::<Vec<_>>());
        let at = req.body.len() - 100;
        req.body[at] ^= 0x01;
        assert_eq!(c.respond(&req).status, 400);
        assert_eq!(c.stats().records, records);
        assert_eq!(c.store().lock().epoch(), epoch);
    }

    /// A retire frame, as the store's own WAL writer wrote it.
    fn retire_frame() -> Vec<u8> {
        let dir = unique_dir("collector-retire-frame");
        let _guard = DirGuard::new(dir.clone());
        let mut store = CosmosStore::durable(&dir, 8, 1).unwrap();
        store.retire_before(SimTime(1));
        drop(store);
        let wal = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().ends_with(".log"))
            .unwrap();
        std::fs::read(wal).unwrap()
    }

    #[test]
    fn retire_trailing_and_untyped_frames_get_400() {
        let c = Collector::new();
        let mut retire = upload_request(&[]);
        retire.body = retire_frame();
        let mut trailing = upload_request(&[rec(1)]);
        trailing.body.push(0);
        let untyped = Request::post("/upload", upload_request(&[rec(1)]).body);
        for req in [retire, trailing, untyped] {
            assert_eq!(c.respond(&req).status, 400, "{:?}", req.headers);
        }
        assert_eq!(c.stats().records, 0);
    }

    #[test]
    fn zero_record_frame_is_empty() {
        let c = Collector::new();
        let resp = c.respond(&upload_request(&[]));
        assert_eq!((resp.status, &resp.body[..]), (200, &b"empty"[..]));
        assert_eq!(c.stats().records, 0);
    }

    #[test]
    fn json_body_is_still_stored_by_the_compat_branch() {
        // The frozen benchmark's traced staged replay posts JSON with no
        // content type; this branch stays until that caller goes.
        let c = Collector::new();
        let batch = vec![rec(1), rec(2)];
        let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        assert_eq!(stored(&c), batch);
    }

    #[test]
    fn frame_decode_and_json_decode_agree_on_random_records() {
        let records = random_records(25, 10_000);
        let arms: std::collections::HashSet<_> = records
            .iter()
            .map(|r| {
                let kind = std::mem::discriminant(&r.kind);
                (kind, r.qos, std::mem::discriminant(&r.outcome))
            })
            .collect();
        assert_eq!(
            arms.len(),
            3 * 2 * 3,
            "every enum arm, in every combination"
        );
        assert!(records.iter().any(|r| r.ts == SimTime(u64::MAX)));
        assert!(records.iter().any(|r| r.dst_pod == PodId(u32::MAX)));
        assert!(records.iter().any(|r| r.src_port == u16::MAX));
        let frame = decode_upload_frame(&upload_request(&records).body).unwrap();
        let json: Vec<ProbeRecord> =
            serde_json::from_slice(&serde_json::to_vec(&records).unwrap()).unwrap();
        assert_eq!(frame, records);
        assert_eq!(json, records);
    }

    #[tokio::test]
    async fn upload_records_with_posts_one_exact_frame() {
        let captured = Arc::new(Mutex::new(Vec::<Request>::new()));
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = Arc::clone(&captured);
        let server = tokio::spawn(pingmesh_httpx::serve(listener, move |req: &Request| {
            sink.lock().push(req.clone());
            Response::ok(b"stored".to_vec())
        }));
        for n in [0u64, 1, 2_000] {
            let batch: Vec<ProbeRecord> = (0..n).map(rec).collect();
            upload_records_with(addr, &batch, Duration::from_secs(10))
                .await
                .unwrap();
            let req = captured.lock().pop().expect("the stub saw the upload");
            assert_eq!(req.header("content-type"), Some(UPLOAD_CONTENT_TYPE));
            assert_eq!(req.body.len(), 12 + 25 + 64 * n as usize);
            assert_eq!(decode_upload_frame(&req.body).unwrap(), batch);
        }
        server.abort();
    }

    #[test]
    fn malformed_and_unknown_requests() {
        let c = Collector::new();
        assert_eq!(
            c.respond(&Request::post("/upload", b"not json".to_vec()))
                .status,
            400
        );
        assert_eq!(c.respond(&Request::get("/nope")).status, 404);
        assert_eq!(c.respond(&Request::get("/upload")).status, 404);
        // Empty batch is accepted but stores nothing.
        assert_eq!(
            c.respond(&Request::post("/upload", b"[]".to_vec())).status,
            200
        );
        assert_eq!(c.stats().records, 0);
    }

    fn wal_checkpoints(c: &Collector) -> u64 {
        c.store()
            .lock()
            .durability_stats()
            .map_or(0, |d| d.checkpoints)
    }

    #[test]
    fn append_path_never_compacts_inline() {
        let c = Collector::new();
        assert!(c.store().lock().durable_dir().is_some(), "durable store");
        // With the compactor stopped, nothing else may checkpoint; set a
        // threshold small enough that uploads alone would have forced
        // several inline checkpoints under the old behaviour.
        c.stop_background_compaction();
        c.set_compaction_threshold(4 * 1024);
        // Opening the store may commit a recovery checkpoint of its own;
        // measure upload-time checkpoints against this baseline.
        let base = wal_checkpoints(&c);
        let mut uploaded = 0u64;
        for i in 0..40u64 {
            let batch: Vec<ProbeRecord> = (0..50).map(|j| rec(i * 50 + j)).collect();
            let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
            assert_eq!(c.respond(&req).status, 200);
            uploaded += 50;
        }
        let stats = c.store().lock().durability_stats().expect("durable");
        assert!(
            stats.wal_bytes > 4 * 1024,
            "the WAL outgrew the threshold ({} bytes)",
            stats.wal_bytes
        );
        assert_eq!(
            stats.checkpoints, base,
            "no upload may pay for a checkpoint — that is the background \
             compactor's job"
        );
        assert_eq!(c.stats().records, uploaded);
        // The work was deferred, not dropped: a direct compactor pass
        // performs exactly the checkpoint the uploads never ran.
        checkpoint_pass(c.store(), &c.compaction, 4 * 1024);
        assert_eq!(wal_checkpoints(&c), base + 1);
        assert_eq!(c.stats().records, uploaded, "compaction loses nothing");
    }

    #[test]
    fn no_upload_is_acknowledged_with_a_checkpoint_backlog_behind_it() {
        let c = Collector::new();
        // A backlog is four checkpoints' worth, 16 KiB here: about five
        // of these uploads. A tight loop of them outruns any compactor,
        // so uploads must wait for it.
        c.set_compaction_threshold(4 * 1024);
        for i in 0..60u64 {
            let batch: Vec<ProbeRecord> = (0..50).map(|j| rec(i * 50 + j)).collect();
            assert_eq!(c.respond(&upload_request(&batch)).status, 200);
            // Only a rotation shrinks the live WAL, so what held when the
            // upload was acknowledged still holds.
            assert!(!c.store().lock().checkpoint_backlogged(4 * 1024));
        }
        assert_eq!(c.stats().records, 3000);
    }

    #[test]
    fn background_compactor_checkpoints_without_any_request() {
        let c = Collector::new();
        c.set_compaction_threshold(4 * 1024);
        let base = wal_checkpoints(&c);
        for i in 0..20u64 {
            let batch: Vec<ProbeRecord> = (0..50).map(|j| rec(i * 50 + j)).collect();
            let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
            assert_eq!(c.respond(&req).status, 200);
        }
        // No further requests: the compactor thread must pick the
        // checkpoint up on its own within a few poll intervals.
        let deadline = Instant::now() + Duration::from_secs(10);
        while wal_checkpoints(&c) <= base && Instant::now() < deadline {
            std::thread::sleep(COMPACTOR_POLL);
        }
        assert!(
            wal_checkpoints(&c) > base,
            "background compactor never checkpointed"
        );
        assert_eq!(c.stats().records, 1000);
        // Both sides of the store lock left a sample: every upload's
        // wait, and the checkpoint's locked and unlocked phases (taking
        // `compaction` waits for that pass to finish recording).
        drop(c.compaction.lock());
        let samples = |name| pingmesh_obs::registry().histogram(name).snapshot().count();
        assert!(samples("pingmesh_realmode_upload_lock_wait_us") >= 20);
        assert!(samples("pingmesh_store_checkpoint_lock_held_us") >= 1);
        assert!(samples("pingmesh_store_checkpoint_write_us") >= 1);
    }

    #[test]
    fn adversarial_uploads_get_400_and_never_wedge_the_collector() {
        let c = Collector::new();
        let valid = serde_json::to_vec(&vec![rec(1), rec(2)]).unwrap();
        // A valid batch truncated mid-record (simulates a connection cut
        // after content-length was already honoured by a buggy client).
        let truncated = valid[..valid.len() / 2].to_vec();
        // Structurally valid JSON of the wrong shape.
        let cases: Vec<Vec<u8>> = vec![
            truncated,
            b"{\"records\": 3}".to_vec(),
            b"[{\"ts\": \"yesterday\"}]".to_vec(),
            b"null".to_vec(),
            b"[null]".to_vec(),
            vec![0xff, 0xfe, 0x00, 0x80], // invalid UTF-8
            vec![b'['; 4096],             // deeply nested open brackets
        ];
        for (i, body) in cases.into_iter().enumerate() {
            assert_eq!(
                c.respond(&Request::post("/upload", body)).status,
                400,
                "case {i} must be rejected, not panic"
            );
        }
        assert_eq!(c.stats().records, 0, "nothing adversarial was stored");
        // The collector still serves every route after the abuse.
        assert_eq!(c.respond(&Request::post("/upload", valid)).status, 200);
        assert_eq!(c.stats().records, 2);
        for route in ["/stats", "/metrics", "/events", "/healthz", "/slo"] {
            assert_eq!(c.respond(&Request::get(route)).status, 200, "{route}");
        }
    }

    #[test]
    fn outage_mode_returns_503() {
        let c = Collector::new();
        c.set_accepting(false);
        let batch = vec![rec(1)];
        let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
        assert_eq!(c.respond(&req).status, 503);
        assert_eq!(c.stats().records, 0);
        c.set_accepting(true);
        assert_eq!(c.respond(&req).status, 200);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let c = Collector::new();
        // Touch a metric through the normal path first so the exposition
        // is non-trivial.
        let batch = vec![rec(1)];
        let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        let resp = c.respond(&Request::get("/metrics"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("pingmesh_realmode_requests_total"));
        assert!(text.contains("pingmesh_realmode_uploaded_records_total"));
        assert!(text.contains("# TYPE"));
    }

    #[test]
    fn healthz_reports_every_stage_and_installed_slos() {
        let c = Collector::new();
        let resp = c.respond(&Request::get("/healthz"));
        assert_eq!(resp.status, 200);
        let report: HealthReport = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(report.stages.len(), pingmesh_obs::trace::STAGES.len());
        for (st, name) in report.stages.iter().zip(pingmesh_obs::trace::STAGES) {
            assert_eq!(st.stage, name, "stages render in pipeline order");
        }
        // Freshness always evaluates; the ratio SLOs appear only once
        // their inputs are installed.
        assert!(report.slos.iter().any(|s| s.slo == "freshness"));
        assert!(!report.slos.iter().any(|s| s.slo == "completeness"));
        c.set_expected_pairs(ExpectedPairs::default());
        c.set_completeness(90, 100);
        let resp = c.respond(&Request::get("/slo"));
        assert_eq!(resp.status, 200);
        let slos: Vec<SloJson> = serde_json::from_slice(&resp.body).unwrap();
        let cov = slos.iter().find(|s| s.slo == "coverage").unwrap();
        assert!(cov.healthy, "no expected pairs → vacuously covered");
        let comp = slos.iter().find(|s| s.slo == "completeness").unwrap();
        assert!((comp.value - 0.9).abs() < 1e-9);
        assert!(!comp.healthy, "0.9 misses the default 0.95 target");
        assert!(comp.burn_rate > 0.0);
    }

    #[test]
    fn events_endpoint_carries_drop_accounting_headers() {
        pingmesh_obs::set_enabled(true);
        let c = Collector::new();
        pingmesh_obs::emit!(Info, "realmode.test", "drop_header_probe");
        let resp = c.respond(&Request::get("/events?since=0"));
        assert_eq!(resp.status, 200);
        let header = |name: &str| {
            resp.headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.parse::<u64>().unwrap())
                .unwrap_or_else(|| panic!("missing header {name}"))
        };
        let last_seq = header("x-pingmesh-events-last-seq");
        assert!(last_seq >= 1);
        assert_eq!(last_seq, pingmesh_obs::events().last_seq());
        assert_eq!(
            header("x-pingmesh-events-dropped"),
            pingmesh_obs::events().dropped()
        );
    }

    #[test]
    fn events_endpoint_filters_by_since() {
        pingmesh_obs::set_enabled(true);
        let c = Collector::new();
        let before = pingmesh_obs::events().last_seq();
        pingmesh_obs::emit!(Info, "realmode.test", "events_endpoint_probe", "n" => 1u64);
        let resp = c.respond(&Request::get(&format!("/events?since={before}")));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("events_endpoint_probe"), "body: {body}");
        // Everything has been seen: the incremental poll comes back empty.
        let after = pingmesh_obs::events().last_seq();
        let resp = c.respond(&Request::get(&format!("/events?since={after}")));
        assert!(!String::from_utf8(resp.body)
            .unwrap()
            .contains("events_endpoint_probe"));
        // Malformed cursor is a client error.
        assert_eq!(c.respond(&Request::get("/events?since=xyz")).status, 400);
    }

    #[tokio::test]
    async fn metrics_and_events_scrape_over_real_sockets() {
        pingmesh_obs::set_enabled(true);
        let c = Collector::new();
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve_collector(listener, c.clone()));

        upload_records(addr, &[rec(1), rec(2)]).await.unwrap();
        pingmesh_obs::emit!(Info, "realmode.test", "scrape_marker");

        async fn get(addr: SocketAddr, path: &str) -> Response {
            pingmesh_httpx::call(addr, &Request::get(path), Duration::from_secs(10))
                .await
                .unwrap()
        }

        let metrics = get(addr, "/metrics").await;
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("pingmesh_realmode_uploaded_records_total"));

        let events = get(addr, "/events?since=0").await;
        assert_eq!(events.status, 200);
        let body = String::from_utf8(events.body).unwrap();
        assert!(body.contains("scrape_marker"), "body: {body}");
    }

    #[tokio::test]
    async fn upload_over_real_sockets() {
        let c = Collector::new();
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve_collector(listener, c.clone()));

        let batch: Vec<ProbeRecord> = (0..100).map(rec).collect();
        upload_records(addr, &batch).await.unwrap();
        let stats = fetch_stats(addr).await.unwrap();
        assert_eq!(stats.records, 100);
        // And the shared store is directly scannable for analysis.
        assert_eq!(
            c.store()
                .lock()
                .scan_all_window_chunks(SimTime(0), SimTime(1_000))
                .into_iter()
                .flatten()
                .count(),
            100
        );
    }

    #[tokio::test]
    async fn keep_alive_connection_serves_many_requests() {
        let c = Collector::new();
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve_collector(listener, c.clone()));

        let stream = TcpStream::connect(addr).await.unwrap();
        let mut conn = Conn::new(stream);
        let deadline = std::time::Duration::from_secs(10);
        // Upload, stats, and healthz all ride one connection.
        let batch = vec![rec(1), rec(2), rec(3)];
        let mut up = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
        up.set_keep_alive();
        conn.queue_request(&up);
        conn.flush_with(deadline).await.unwrap();
        assert_eq!(conn.read_response_with(deadline).await.unwrap().status, 200);
        for path in ["/stats", "/healthz", "/stats"] {
            let mut req = Request::get(path);
            req.set_keep_alive();
            conn.queue_request(&req);
            conn.flush_with(deadline).await.unwrap();
            let resp = conn.read_response_with(deadline).await.unwrap();
            assert_eq!(resp.status, 200, "{path}");
        }
        let stats: CollectorStats = {
            let mut req = Request::get("/stats");
            req.set_keep_alive();
            conn.queue_request(&req);
            conn.flush_with(deadline).await.unwrap();
            serde_json::from_slice(&conn.read_response_with(deadline).await.unwrap().body).unwrap()
        };
        assert_eq!(stats.records, 3);
    }

    #[tokio::test]
    async fn large_events_response_survives_chunked_flush() {
        pingmesh_obs::set_enabled(true);
        let c = Collector::new();
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve_collector(listener, c.clone()));

        // Fill the ring far enough that the JSON-lines dump exceeds the
        // chunked-flush threshold, then fetch it in one conditional-free
        // GET over a keep-alive connection and verify it arrives whole.
        let since = pingmesh_obs::events().last_seq();
        for i in 0..4000u64 {
            pingmesh_obs::emit!(Info, "realmode.test", "bulk_event_payload_padding_padding",
                "i" => i, "j" => i * 31, "k" => i * 977);
        }
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut conn = Conn::new(stream);
        let deadline = std::time::Duration::from_secs(10);
        let mut req = Request::get(&format!("/events?since={since}"));
        req.set_keep_alive();
        conn.queue_request(&req);
        conn.flush_with(deadline).await.unwrap();
        let resp = conn.read_response_with(deadline).await.unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.len() > CHUNKED_FLUSH_THRESHOLD,
            "dump must exercise the chunked path ({} bytes)",
            resp.body.len()
        );
        let text = String::from_utf8(resp.body).unwrap();
        // Content-length framing plus chunked flushing must deliver every
        // line intact: each non-empty line parses as one JSON event.
        for line in text.lines().filter(|l| !l.is_empty()) {
            let v: serde_json::Value = serde_json::from_str(line).expect("intact JSONL line");
            assert!(v.get("seq").is_some(), "line: {line}");
        }
        // The connection is still usable after the big dump.
        let mut req = Request::get("/stats");
        req.set_keep_alive();
        conn.queue_request(&req);
        conn.flush_with(deadline).await.unwrap();
        assert_eq!(conn.read_response_with(deadline).await.unwrap().status, 200);
    }

    #[tokio::test]
    async fn upload_to_stalled_collector_times_out_not_hangs() {
        // A collector that accepts and never reads must cost the agent at
        // most its per-phase deadline.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = tokio::spawn(async move {
            let mut held = Vec::new();
            while let Ok((stream, _)) = listener.accept().await {
                held.push(stream);
            }
        });
        let t0 = std::time::Instant::now();
        let err = upload_records_with(addr, &[rec(1)], std::time::Duration::from_millis(250))
            .await
            .unwrap_err();
        assert!(matches!(err, PingmeshError::Timeout(_)), "{err}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(3),
            "{:?}",
            t0.elapsed()
        );
        holder.abort();
    }

    #[test]
    fn collector_is_durable_by_default_and_recovers_acked_uploads() {
        let c = Collector::new();
        assert!(c.store().lock().durable_dir().is_some(), "durable default");
        let batch = vec![rec(1), rec(2), rec(3)];
        let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        assert!(c.crash_and_recover().unwrap());
        assert_eq!(c.stats().records, 3, "every acknowledged record survives");
        // The recovered store keeps serving uploads and scans.
        let more = vec![rec(10)];
        let req = Request::post("/upload", serde_json::to_vec(&more).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        assert_eq!(c.stats().records, 4);
        assert_eq!(
            c.store()
                .lock()
                .scan_all_window_chunks(SimTime(0), SimTime(1_000))
                .into_iter()
                .flatten()
                .count(),
            4
        );
    }

    #[test]
    fn crash_mid_append_loses_only_the_unacked_tail() {
        let c = Collector::new();
        let acked = vec![rec(1), rec(2)];
        let req = Request::post("/upload", serde_json::to_vec(&acked).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        // The torn frame was never acknowledged to any agent, so
        // truncating it away loses nothing the system promised to keep.
        let torn = vec![rec(50), rec(51)];
        assert!(c.crash_and_recover_mid_append(&torn).unwrap());
        assert_eq!(c.stats().records, 2);
        let stats = c.store().lock().durability_stats().unwrap();
        assert!(stats.truncated_entries > 0, "torn tail was truncated");
    }

    #[test]
    fn crash_mid_compaction_recovers_from_the_old_manifest() {
        let c = Collector::new();
        let batch: Vec<ProbeRecord> = (0..500u64).map(rec).collect();
        let req = Request::post("/upload", serde_json::to_vec(&batch).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        assert!(c.crash_and_recover_mid_compaction().unwrap());
        assert_eq!(c.stats().records, 500, "orphaned generation is ignored");
        let req = Request::post("/upload", serde_json::to_vec(&vec![rec(9_999)]).unwrap());
        assert_eq!(c.respond(&req).status, 200, "store accepts after recovery");
    }

    #[test]
    fn in_memory_collector_skips_durability_surfaces() {
        let c = Collector::in_memory();
        assert!(!c.crash_and_recover().unwrap(), "nothing to recover");
        let resp = c.respond(&Request::get("/healthz"));
        let report: HealthReport = serde_json::from_slice(&resp.body).unwrap();
        assert!(report.durability.is_none());
        assert!(!report.slos.iter().any(|s| s.slo == "wal_flush_lag"));
    }

    #[test]
    fn healthz_reports_wal_durability_and_flush_lag_slo() {
        let c = Collector::new();
        let req = Request::post("/upload", serde_json::to_vec(&vec![rec(1)]).unwrap());
        assert_eq!(c.respond(&req).status, 200);
        let resp = c.respond(&Request::get("/healthz"));
        let report: HealthReport = serde_json::from_slice(&resp.body).unwrap();
        let d = report.durability.expect("durable by default");
        assert_eq!(d.wal_entries, 1);
        assert!(report.slos.iter().any(|s| s.slo == "wal_flush_lag"));
    }

    #[tokio::test]
    async fn upload_to_down_collector_fails() {
        let c = Collector::new();
        c.set_accepting(false);
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve_collector(listener, c.clone()));
        let err = upload_records(addr, &[rec(1)]).await.unwrap_err();
        assert!(matches!(err, PingmeshError::UploadFailed(_)));
    }
}
