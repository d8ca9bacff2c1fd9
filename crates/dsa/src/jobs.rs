//! The job manager and the standard analysis pipeline.
//!
//! "We have 10-min, 1-hour, 1-day jobs at different time scales. The
//! 10-min jobs are our near real-time ones. ... The 1-hour and 1-day
//! pipelines are for non real-time tasks including network SLA tracking,
//! network black-hole detection, packet drop detection, etc. All our jobs
//! are automatically and periodically submitted by a Job Manager to
//! SCOPE without user intervention." (§3.5)
//!
//! [`JobManager`] fires [`JobTick`]s on cadence; [`Pipeline`] is the
//! standard job set run on each tick:
//!
//! * every 10 minutes: SLA rollups → results DB → alerts, pattern
//!   classification per DC, silent-drop incident detection;
//! * every hour: black-hole detection;
//! * every day: retention cleanup (2-month horizon).

use crate::agg::ScopeStats;
use crate::alert::{Alert, Alerter};
use crate::db::{ResultsDb, ScopeKey, SlaRow};
use crate::detect::blackhole::{BlackholeDetector, BlackholeFinding};
use crate::detect::pattern::{classify_pattern, HeatmapMatrix, LatencyPattern};
use crate::detect::silent::{SilentDropDetector, SilentDropFinding};
use crate::quality::{ExpectedPairs, QualityConfig, QualityReport};
use crate::store::CosmosStore;
use pingmesh_types::{DcId, SimDuration, SimTime};

/// How long after a window closes its job fires. Agents buffer results
/// for up to 10 minutes before uploading, so a window's records are only
/// complete one upload interval later — this is why the paper's 10-min
/// near-real-time path has "around 20 minutes" of end-to-end delay.
pub const INGEST_LAG: SimDuration = SimDuration::from_mins(10);
use pingmesh_topology::{ServiceMap, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Cadence class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Near-real-time 10-minute job.
    TenMin,
    /// Hourly job.
    Hourly,
    /// Daily job.
    Daily,
}

impl JobKind {
    /// Window length of the cadence.
    pub fn period(self) -> SimDuration {
        match self {
            JobKind::TenMin => SimDuration::from_mins(10),
            JobKind::Hourly => SimDuration::from_hours(1),
            JobKind::Daily => SimDuration::from_days(1),
        }
    }
}

/// One job activation over a completed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTick {
    /// Cadence class.
    pub kind: JobKind,
    /// Start of the analyzed window.
    pub window_start: SimTime,
    /// End of the analyzed window (= submission time).
    pub window_end: SimTime,
}

/// Fires job ticks on cadence.
#[derive(Debug)]
pub struct JobManager {
    next: [(JobKind, SimTime); 3],
}

impl Default for JobManager {
    fn default() -> Self {
        Self::new()
    }
}

impl JobManager {
    /// A manager whose first ticks fire one period plus the ingest lag
    /// after time zero (covering the first complete window).
    pub fn new() -> Self {
        Self {
            next: [
                (
                    JobKind::TenMin,
                    SimTime::ZERO + JobKind::TenMin.period() + INGEST_LAG,
                ),
                (
                    JobKind::Hourly,
                    SimTime::ZERO + JobKind::Hourly.period() + INGEST_LAG,
                ),
                (
                    JobKind::Daily,
                    SimTime::ZERO + JobKind::Daily.period() + INGEST_LAG,
                ),
            ],
        }
    }

    /// The earliest pending tick time.
    pub fn next_wakeup(&self) -> SimTime {
        self.next.iter().map(|&(_, t)| t).min().expect("non-empty")
    }

    /// Pops every tick due at or before `now`, advancing cadences.
    pub fn due(&mut self, now: SimTime) -> Vec<JobTick> {
        let mut out = Vec::new();
        for slot in &mut self.next {
            while slot.1 <= now {
                let window_end = slot.1 - INGEST_LAG;
                out.push(JobTick {
                    kind: slot.0,
                    window_start: window_end - slot.0.period(),
                    window_end,
                });
                slot.1 += slot.0.period();
            }
        }
        out.sort_by_key(|t| t.window_end);
        out
    }
}

/// Everything a pipeline tick produced.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Alert transitions.
    pub alerts: Vec<Alert>,
    /// Pattern verdict per DC (10-min ticks).
    pub patterns: HashMap<DcId, LatencyPattern>,
    /// Silent-drop incidents opened this tick.
    pub incidents: Vec<SilentDropFinding>,
    /// Black-hole findings (hourly ticks).
    pub blackholes: Option<BlackholeFinding>,
    /// The rendered daily network report (daily ticks).
    pub daily_report: Option<String>,
    /// Records analyzed.
    pub records: u64,
}

/// The standard Pingmesh analysis pipeline over a store.
pub struct Pipeline {
    topo: Arc<Topology>,
    services: Arc<ServiceMap>,
    /// The record store being analyzed.
    pub store: CosmosStore,
    /// The results database fed by the 10-minute job.
    pub db: ResultsDb,
    /// The alerter fed by the 10-minute job.
    pub alerter: Alerter,
    /// Black-hole detector (hourly).
    pub blackhole: BlackholeDetector,
    /// Silent-drop detector (10-minute).
    pub silent: SilentDropDetector,
    /// Data retention horizon.
    pub retention: SimDuration,
    /// Data-quality SLO targets for the 10-minute quality job.
    pub quality_cfg: QualityConfig,
    /// Pod pairs the active pinglist generation expects to report; the
    /// quality job is skipped until the generator installs this.
    expected: Option<Arc<ExpectedPairs>>,
    /// Probes scheduled to have produced a stored record by now
    /// (conservation-ledger `observed − unresolved − buffered`),
    /// maintained by the orchestrator.
    scheduled_probes: u64,
    /// Most recent quality evaluation (10-min cadence).
    latest_quality: Option<QualityReport>,
}

impl Pipeline {
    /// Creates a pipeline with default detectors and a 2-month retention
    /// horizon ("We keep Pingmesh historical data for 2 months"). The
    /// pipeline's store is the simulator's, in memory; a durable one whose
    /// evicted segments cannot be read back panics here.
    pub fn new(topo: Arc<Topology>, services: ServiceMap, mut store: CosmosStore) -> Self {
        let services = Arc::new(services);
        // The store folds per-service scopes into its ingest-time window
        // partials; give it the map (refolding anything appended early).
        store
            .set_service_map(services.clone())
            .expect("refold the pipeline's store");
        Self {
            topo,
            services,
            store,
            db: ResultsDb::new(),
            // 500+ successful probes per row: per-server scopes with a few
            // hundred samples have statistically meaningless P99s (a single
            // OS hiccup lands above 5 ms), so alerting starts at pod scope.
            alerter: Alerter::new(500),
            blackhole: BlackholeDetector::default(),
            silent: SilentDropDetector::default(),
            retention: SimDuration::from_days(60),
            quality_cfg: QualityConfig::default(),
            expected: None,
            scheduled_probes: 0,
            latest_quality: None,
        }
    }

    /// Installs the expected pod-pair set of the active pinglist
    /// generation, enabling the quality job on 10-minute ticks.
    pub fn set_expected_pairs(&mut self, expected: Arc<ExpectedPairs>) {
        self.expected = Some(expected);
    }

    /// The expected pod-pair set, if installed.
    pub fn expected_pairs(&self) -> Option<&Arc<ExpectedPairs>> {
        self.expected.as_ref()
    }

    /// Updates the scheduled-probe count the completeness SLO divides by.
    pub fn set_scheduled_probes(&mut self, scheduled: u64) {
        self.scheduled_probes = scheduled;
    }

    /// Scheduled-probe count currently used by the completeness SLO.
    pub fn scheduled_probes(&self) -> u64 {
        self.scheduled_probes
    }

    /// The most recent quality report, if a 10-minute tick has run since
    /// [`Pipeline::set_expected_pairs`].
    pub fn latest_quality(&self) -> Option<&QualityReport> {
        self.latest_quality.as_ref()
    }

    /// The service map used for per-service SLAs.
    pub fn services(&self) -> &ServiceMap {
        self.services.as_ref()
    }

    /// Runs the job set of one tick.
    ///
    /// Every cadence reads the window through the store's ingest-time
    /// partials: the 10-minute job borrows the one finished partial of a
    /// single-stream store in place, hourly/daily merge the enclosed
    /// partials — O(scopes × windows) with zero per-record copies.
    pub fn run_tick(&mut self, tick: JobTick) -> TickOutput {
        let started = std::time::Instant::now();
        // Sim-bounded span: wall duration is the tick compute, sim bounds
        // are the window the tick covers.
        let mut tick_span =
            pingmesh_obs::span("dsa.jobs", "tick_window").sim_start(tick.window_start);
        tick_span.set_sim_end(tick.window_end);
        // The tick fires one ingest lag after its window closes.
        let tick_now = tick.window_end + INGEST_LAG;
        let mut out = TickOutput::default();
        let agg = self
            .store
            .window_aggregate(tick.window_start, tick.window_end);
        out.records = agg.record_count;

        match tick.kind {
            JobKind::TenMin => {
                pingmesh_obs::trace::on_tick(tick.window_start, tick.window_end, tick_now);
                // SLA rollups → DB rows, straight off the merged
                // aggregate's per-scope summaries.
                let mut insert = |scope: ScopeKey, sla: &ScopeStats| {
                    self.db.insert(SlaRow {
                        window_start: tick.window_start,
                        scope,
                        drop_rate: sla.drop_rate(),
                        p50_us: sla.p50().map_or(0, |d| d.as_micros()),
                        p99_us: sla.p99().map_or(0, |d| d.as_micros()),
                        samples: sla.stats.successful(),
                    });
                };
                for (&dc, sla) in &agg.per_dc {
                    insert(ScopeKey::Dc(dc), sla);
                }
                for (&(a, b), sla) in &agg.per_dc_pair {
                    insert(ScopeKey::DcPair(a, b), sla);
                }
                for (&ps, sla) in &agg.per_podset {
                    insert(ScopeKey::Podset(ps), sla);
                }
                for (&p, sla) in &agg.per_pod {
                    insert(ScopeKey::Pod(p), sla);
                }
                for (&s, sla) in &agg.per_server {
                    insert(ScopeKey::Server(s), sla);
                }
                for (&svc, sla) in &agg.per_service {
                    insert(ScopeKey::Service(svc), sla);
                }
                // Alerts over this window's rows, borrowed straight from
                // the DB (db and alerter are disjoint fields).
                out.alerts = self.alerter.check(self.db.window_rows(tick.window_start));
                // Pattern per DC + silent-drop incident detection, off
                // the same aggregate the SLA rows came from.
                for dc in self.topo.dcs() {
                    let matrix = HeatmapMatrix::from_aggregate(&agg, &self.topo, dc);
                    out.patterns.insert(dc, classify_pattern(&matrix));
                    if let Some(finding) =
                        self.silent
                            .observe_window(dc, tick.window_start, &agg, &self.topo)
                    {
                        out.incidents.push(finding);
                    }
                }
                // Quality job: Pingmesh monitors Pingmesh. Runs on the
                // near-real-time cadence once the generator has told us
                // what to expect. Coverage scans the window this tick
                // just folded — the only range guaranteed fully
                // ingested at tick time; a now-anchored horizon would
                // count records still buffered at agents and read
                // healthy runs as under-covered.
                if let Some(expected) = self.expected.clone() {
                    self.latest_quality = Some(
                        crate::quality::evaluate_window(
                            &self.store,
                            &expected,
                            self.scheduled_probes,
                            tick.window_start,
                            tick.window_end,
                            tick_now,
                            &self.quality_cfg,
                        )
                        .expect("the pipeline's store is in memory: its scans cannot fail"),
                    );
                }
                // SLA rows for this window are now visible: finalize any
                // sampled traces that were waiting on it.
                pingmesh_obs::trace::on_sla(tick.window_start, tick.window_end, tick_now);
            }
            JobKind::Hourly => {
                out.blackholes = Some(self.blackhole.detect(&agg, &self.topo));
            }
            JobKind::Daily => {
                // Render the daily report before retention trims history.
                out.daily_report = Some(crate::report::daily_report(
                    &self.db,
                    self.alerter.history(),
                    &self.topo,
                    tick.window_start,
                ));
                let horizon = SimTime(
                    tick.window_end
                        .as_micros()
                        .saturating_sub(self.retention.as_micros()),
                );
                self.store.retire_before(horizon);
                self.db.retire_before(horizon);
            }
        }
        let stage = match tick.kind {
            JobKind::TenMin => "ten_min",
            JobKind::Hourly => "hourly",
            JobKind::Daily => "daily",
        };
        let registry = pingmesh_obs::registry();
        registry
            .counter_with("pingmesh_dsa_records_ingested_total", &[("stage", stage)])
            .add(out.records);
        registry
            .histogram_with("pingmesh_dsa_tick_us", &[("stage", stage)])
            .record_wall(started.elapsed());
        pingmesh_obs::emit_sim!(tick.window_end; Info, "dsa.jobs", "tick",
            "stage" => stage,
            "records" => out.records,
            "alerts" => out.alerts.len() as u64,
            "incidents" => out.incidents.len() as u64,
            "duration_us" => started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::WindowAggregate;
    use crate::store::StreamName;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::{ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration};

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap())
    }

    fn rec(topo: &Topology, src: u32, dst: u32, ts: u64, rtt_us: u64) -> ProbeRecord {
        let s = topo.server(ServerId(src));
        let d = topo.server(ServerId(dst));
        ProbeRecord {
            ts: SimTime(ts),
            src: ServerId(src),
            dst: ServerId(dst),
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(rtt_us),
            },
        }
    }

    #[test]
    fn manager_fires_on_cadence() {
        let mut m = JobManager::new();
        assert_eq!(
            m.next_wakeup(),
            SimTime::ZERO + SimDuration::from_mins(10) + INGEST_LAG
        );
        let ticks = m.due(SimTime::ZERO + SimDuration::from_hours(1) + INGEST_LAG);
        let tenmin = ticks.iter().filter(|t| t.kind == JobKind::TenMin).count();
        let hourly = ticks.iter().filter(|t| t.kind == JobKind::Hourly).count();
        let daily = ticks.iter().filter(|t| t.kind == JobKind::Daily).count();
        assert_eq!(tenmin, 6);
        assert_eq!(hourly, 1);
        assert_eq!(daily, 0);
        // Windows tile without gaps.
        let mut windows: Vec<(u64, u64)> = ticks
            .iter()
            .filter(|t| t.kind == JobKind::TenMin)
            .map(|t| (t.window_start.as_micros(), t.window_end.as_micros()))
            .collect();
        windows.sort();
        for w in windows.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn ten_minute_tick_fills_db_and_classifies() {
        let t = topo();
        let mut store = CosmosStore::with_defaults();
        let records: Vec<ProbeRecord> = (0..200u64)
            .map(|i| rec(&t, (i % 32) as u32, ((i + 5) % 32) as u32, i * 1_000, 260))
            .collect();
        store.append(
            StreamName {
                dc: pingmesh_types::DcId(0),
            },
            &records,
            SimTime(0),
        );
        let mut p = Pipeline::new(t.clone(), ServiceMap::new(), store);
        let out = p.run_tick(JobTick {
            kind: JobKind::TenMin,
            window_start: SimTime::ZERO,
            window_end: SimTime::ZERO + SimDuration::from_mins(10),
        });
        assert_eq!(out.records, 200);
        assert!(out.alerts.is_empty());
        assert!(!p.db.is_empty());
        assert_eq!(
            out.patterns[&pingmesh_types::DcId(0)],
            LatencyPattern::Normal
        );
        // DC row exists with sane values.
        let row = p.db.latest(ScopeKey::Dc(pingmesh_types::DcId(0))).unwrap();
        assert_eq!(row.samples, 200);
        assert!(row.p50_us > 0);
    }

    #[test]
    fn hourly_tick_runs_blackhole_detection() {
        let t = topo();
        let mut p = Pipeline::new(t, ServiceMap::new(), CosmosStore::with_defaults());
        let out = p.run_tick(JobTick {
            kind: JobKind::Hourly,
            window_start: SimTime::ZERO,
            window_end: SimTime::ZERO + SimDuration::from_hours(1),
        });
        assert!(out.blackholes.is_some());
        assert!(out.blackholes.unwrap().reload_candidates.is_empty());
    }

    #[test]
    fn daily_tick_retires_old_data() {
        let t = topo();
        let mut store = CosmosStore::with_defaults();
        store.append(
            StreamName {
                dc: pingmesh_types::DcId(0),
            },
            &[rec(&t, 0, 1, 0, 250)],
            SimTime(0),
        );
        let mut p = Pipeline::new(t, ServiceMap::new(), store);
        p.retention = SimDuration::from_days(1);
        // A daily tick 3 days in: the day-0 record is beyond retention.
        let out = p.run_tick(JobTick {
            kind: JobKind::Daily,
            window_start: SimTime::ZERO + SimDuration::from_days(2),
            window_end: SimTime::ZERO + SimDuration::from_days(3),
        });
        let report = out.daily_report.expect("daily tick renders a report");
        assert!(report.contains("Pingmesh daily network report"));
        assert_eq!(p.store.record_count(), 1, "count is append-side");
        assert_eq!(
            p.store
                .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
                .len(),
            0,
            "old extent retired"
        );
    }

    #[test]
    fn ticks_merge_partials_without_copying_and_match_rebuild() {
        let t = topo();
        let mut services = ServiceMap::new();
        // Probes go src → src+5, so (0, 5) pairs are service-covered.
        services
            .register("search", [ServerId(0), ServerId(5)])
            .unwrap();
        // Extent cap of 750 vs 1000 records per 10-min window: extents
        // straddle every tick boundary.
        let mut store = CosmosStore::new(750, 1);
        let records: Vec<ProbeRecord> = (0..6_000u64)
            .map(|i| rec(&t, (i % 32) as u32, ((i + 5) % 32) as u32, i * 600_000, 260))
            .collect();
        store.append(
            StreamName {
                dc: pingmesh_types::DcId(0),
            },
            &records,
            SimTime(0),
        );
        let mut p = Pipeline::new(t.clone(), services, store);
        const W: u64 = 600_000_000;
        for k in 0..6u64 {
            let out = p.run_tick(JobTick {
                kind: JobKind::TenMin,
                window_start: SimTime(k * W),
                window_end: SimTime((k + 1) * W),
            });
            // Straddling extents contribute each record to exactly one
            // window: every tick sees exactly its 1000 records.
            assert_eq!(out.records, 1_000, "window {k}");
        }
        let hourly = p.run_tick(JobTick {
            kind: JobKind::Hourly,
            window_start: SimTime(0),
            window_end: SimTime(6 * W),
        });
        assert_eq!(hourly.records, 6_000);
        // The merge-based hot path is bit-equal to a rebuild from raw.
        let merged = p.store.merged_window_aggregate(SimTime(0), SimTime(6 * W));
        let raw = p.store.scan_all_window_chunks(SimTime(0), SimTime(6 * W));
        assert_eq!(
            merged,
            WindowAggregate::build_with(raw.records(), Some(p.services()))
        );
        // Per-service rows landed in the DB off the same aggregate.
        assert!(merged.per_service.len() == 1);
    }

    #[test]
    fn alert_fires_on_injected_bad_window() {
        let t = topo();
        let mut store = CosmosStore::with_defaults();
        // 600 normal + 360 3s-RTT probes from server 0: drop rate ≈ 0.375
        // on ~1000 samples, comfortably above the alerter's minimum.
        let mut records = Vec::new();
        for i in 0..600u64 {
            records.push(rec(&t, 0, 1, i, 260));
        }
        for i in 0..360u64 {
            records.push(rec(&t, 0, 1, 600 + i, 3_000_260));
        }
        store.append(
            StreamName {
                dc: pingmesh_types::DcId(0),
            },
            &records,
            SimTime(0),
        );
        let mut p = Pipeline::new(t, ServiceMap::new(), store);
        // Persistence: the raise fires on the second violating window.
        let first = p.run_tick(JobTick {
            kind: JobKind::TenMin,
            window_start: SimTime::ZERO,
            window_end: SimTime::ZERO + SimDuration::from_mins(10),
        });
        assert!(first.alerts.is_empty(), "one bad window must not page");
        let second = p.run_tick(JobTick {
            kind: JobKind::TenMin,
            window_start: SimTime::ZERO,
            window_end: SimTime::ZERO + SimDuration::from_mins(10),
        });
        assert!(
            second.alerts.iter().any(|a| a.raised),
            "drop-rate alert expected: {:?}",
            second.alerts
        );
    }
}
