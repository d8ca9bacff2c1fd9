//! The data-quality job: coverage, completeness, freshness.
//!
//! The paper's DSA pipeline is trusted because it measures its *own*
//! data quality alongside network latency. This module computes the
//! three SLOs over a [`CosmosStore`]:
//!
//! * **Coverage** — observed (src-pod, dst-pod) pairs over the last
//!   window ÷ pairs the active pinglist generation expects to report.
//! * **Completeness** — records actually stored ÷ probes that should
//!   have produced a stored record by now (the conservation ledger's
//!   `observed − unresolved − buffered`; discarded records are the
//!   shortfall — still-buffered records are lag, not loss).
//! * **Freshness** — `now − newest_ts`, overall and per stream.
//!
//! Evaluation is pure over store state, so the check harness can replay
//! it against ground truth derived from the scenario spec. Targets live
//! in [`QualityConfig`]; results publish through [`pingmesh_obs::slo`]
//! and surface as watchdog findings (see `pingmesh-core`).

use crate::store::{CosmosStore, PARTIAL_WINDOW};
use pingmesh_obs::slo::{self, SloKind, SloStatus};
use pingmesh_topology::Topology;
use pingmesh_types::{PingTarget, Pinglist, PodId, SimDuration, SimTime};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::io;

/// Targets and horizons for the quality job.
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Minimum fraction of expected pod pairs that must report per
    /// coverage window.
    pub coverage_target: f64,
    /// Minimum stored ÷ scheduled ratio.
    pub completeness_target: f64,
    /// Maximum tolerated age of the newest stored record.
    pub freshness_target: SimDuration,
    /// Look-back window for coverage (defaults to one partial window).
    pub coverage_horizon: SimDuration,
    /// Maximum tolerated age of acknowledged-but-unsynced WAL bytes in a
    /// durable store (crash-exposure bound; ignored for in-memory runs).
    pub wal_flush_lag_target: SimDuration,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            coverage_target: 0.9,
            completeness_target: 0.95,
            // One missed 10-min window is tolerable; two is degraded.
            freshness_target: SimDuration::from_mins(20),
            coverage_horizon: PARTIAL_WINDOW,
            // Group commit may defer fsync briefly; two seconds of acked
            // page-cache data is the most a crash may expose.
            wal_flush_lag_target: SimDuration::from_secs(2),
        }
    }
}

/// The (src-pod, dst-pod) pairs an active pinglist generation is
/// expected to report. VIP targets are excluded (their backend pod is a
/// load-balancer decision, not a pinglist fact).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpectedPairs {
    pairs: BTreeSet<(PodId, PodId)>,
}

impl ExpectedPairs {
    /// Derives the expected pair set from a generation's pinglists, read
    /// one at a time.
    pub fn from_pinglists(
        topo: &Topology,
        lists: impl IntoIterator<Item = impl Borrow<Pinglist>>,
    ) -> ExpectedPairs {
        let mut pairs = BTreeSet::new();
        for pl in lists {
            let pl = pl.borrow();
            let src_pod = topo.server(pl.server).pod;
            for entry in &pl.entries {
                if let PingTarget::Server { id, .. } = entry.target {
                    pairs.insert((src_pod, topo.server(id).pod));
                }
            }
        }
        ExpectedPairs { pairs }
    }

    /// Number of expected pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs are expected.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether a pair is expected.
    pub fn contains(&self, src: PodId, dst: PodId) -> bool {
        self.pairs.contains(&(src, dst))
    }
}

/// A ratio with explicit numerator/denominator (1.0 when vacuous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatioSample {
    /// Numerator (observed).
    pub num: u64,
    /// Denominator (expected); 0 means the ratio is vacuously met.
    pub den: u64,
}

impl RatioSample {
    /// The ratio as a float, 1.0 when the denominator is zero.
    pub fn value(self) -> f64 {
        if self.den == 0 {
            1.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

/// One quality-job evaluation.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Start of the coverage window evaluated.
    pub window_start: SimTime,
    /// End of the coverage window evaluated.
    pub window_end: SimTime,
    /// Pod-pair coverage over the window.
    pub coverage: RatioSample,
    /// Stored ÷ scheduled records.
    pub completeness: RatioSample,
    /// Newest-record age per stream, microseconds, labeled by DC.
    pub freshness_us: Vec<(String, u64)>,
    /// The three SLO evaluations (coverage, completeness, freshness).
    pub statuses: Vec<SloStatus>,
}

impl QualityReport {
    /// The status for one SLO kind.
    pub fn status(&self, kind: SloKind) -> Option<&SloStatus> {
        self.statuses.iter().find(|s| s.kind == kind)
    }
}

/// Runs the quality job at `now` with coverage over `[now − horizon,
/// now)`: completeness against `scheduled`, freshness from extent
/// bounds. The now-anchored coverage window is only correct when the
/// store is fully caught up (quiesced runs, realmode's immediate
/// ingest); tick-cadence callers must use [`evaluate_window`] instead,
/// or coverage silently scans records still buffered at agents.
pub fn evaluate(
    store: &CosmosStore,
    expected: &ExpectedPairs,
    scheduled: u64,
    now: SimTime,
    cfg: &QualityConfig,
) -> io::Result<QualityReport> {
    let from = now - cfg.coverage_horizon;
    evaluate_window(store, expected, scheduled, from, now, now, cfg)
}

/// Pod-pair coverage over `[from, to)`: expected pairs with at least one
/// stored record in the window, over expected pairs. Errs when the raw
/// scan does (an evicted extent's segment could not be read back).
pub fn coverage(
    store: &CosmosStore,
    expected: &ExpectedPairs,
    from: SimTime,
    to: SimTime,
) -> io::Result<RatioSample> {
    let mut observed: BTreeSet<(PodId, PodId)> = BTreeSet::new();
    for r in store.try_scan_all_window_chunks(from, to)?.records() {
        if expected.contains(r.src_pod, r.dst_pod) {
            observed.insert((r.src_pod, r.dst_pod));
        }
    }
    Ok(RatioSample {
        num: observed.len() as u64,
        den: expected.len() as u64,
    })
}

/// Age at `now` of the newest stored record: per stream (labeled by DC,
/// microseconds) and the worst of them. A store holding nothing has been
/// stale since the epoch. Publishes `pingmesh_dsa_freshness_us{stream}`.
pub fn freshness(store: &CosmosStore, now: SimTime) -> (u64, Vec<(String, u64)>) {
    let per_stream = store.newest_ts_per_stream();
    let registry = pingmesh_obs::registry();
    let mut worst_age = if per_stream.is_empty() {
        now.as_micros()
    } else {
        0
    };
    let mut ages = Vec::with_capacity(per_stream.len());
    for (stream, ts) in per_stream {
        let age = now.as_micros().saturating_sub(ts.as_micros());
        worst_age = worst_age.max(age);
        let label = format!("{}", stream.dc);
        registry
            .gauge_with("pingmesh_dsa_freshness_us", &[("stream", label.as_str())])
            .set(age as f64);
        ages.push((label, age));
    }
    (worst_age, ages)
}

/// Runs the quality job at `now` with coverage over the explicit
/// window `[cov_from, cov_to)`. The tick-cadence caller passes the
/// window the tick just folded — fully ingested by construction, since
/// ticks fire one full ingest lag after the window closes — so a
/// healthy pipeline reads full coverage even while newer records are
/// still buffered at agents. Publishes the SLO gauges and per-stream
/// freshness gauges as a side effect; the returned report is otherwise
/// pure over the inputs. Errs when the coverage scan does.
pub fn evaluate_window(
    store: &CosmosStore,
    expected: &ExpectedPairs,
    scheduled: u64,
    cov_from: SimTime,
    cov_to: SimTime,
    now: SimTime,
    cfg: &QualityConfig,
) -> io::Result<QualityReport> {
    let coverage = coverage(store, expected, cov_from, cov_to)?;
    let completeness = RatioSample {
        num: store.record_count().min(scheduled),
        den: scheduled,
    };
    let (worst_age, freshness_us) = freshness(store, now);
    let statuses = vec![
        slo::evaluate(SloKind::Coverage, coverage.value(), cfg.coverage_target),
        slo::evaluate(
            SloKind::Completeness,
            completeness.value(),
            cfg.completeness_target,
        ),
        slo::evaluate(
            SloKind::Freshness,
            worst_age as f64,
            cfg.freshness_target.as_micros() as f64,
        ),
    ];
    slo::publish(&statuses);
    pingmesh_obs::emit_sim!(now; Info, "dsa.quality", "quality_report",
        "coverage_num" => coverage.num,
        "coverage_den" => coverage.den,
        "completeness_num" => completeness.num,
        "completeness_den" => completeness.den,
        "freshness_worst_us" => worst_age,
    );
    Ok(QualityReport {
        window_start: cov_from,
        window_end: cov_to,
        coverage,
        completeness,
        freshness_us,
        statuses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StreamName;
    use pingmesh_types::{
        DcId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId,
    };

    fn rec(ts: u64, src_pod: u32, dst_pod: u32) -> ProbeRecord {
        ProbeRecord {
            ts: SimTime(ts),
            src: ServerId(src_pod),
            dst: ServerId(dst_pod),
            src_pod: PodId(src_pod),
            dst_pod: PodId(dst_pod),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(0),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(300),
            },
        }
    }

    fn expected(pairs: &[(u32, u32)]) -> ExpectedPairs {
        ExpectedPairs {
            pairs: pairs.iter().map(|&(a, b)| (PodId(a), PodId(b))).collect(),
        }
    }

    #[test]
    fn coverage_counts_only_expected_pairs_in_window() {
        let mut store = CosmosStore::new(16, 1);
        let s = StreamName { dc: DcId(0) };
        // In-window: (0,1); out-of-window: (1,0); unexpected: (5,6).
        store.append(
            s,
            &[rec(950_000_000, 0, 1), rec(950_000_001, 5, 6)],
            SimTime(950_000_001),
        );
        store.append(s, &[rec(1_000, 1, 0)], SimTime(2_000));
        let exp = expected(&[(0, 1), (1, 0)]);
        let cfg = QualityConfig::default();
        let rep = evaluate(&store, &exp, 3, SimTime(1_000_000_000), &cfg).unwrap();
        assert_eq!(rep.coverage.num, 1, "only (0,1) observed in window");
        assert_eq!(rep.coverage.den, 2);
        assert_eq!(rep.completeness, RatioSample { num: 3, den: 3 });
        assert!(rep.status(SloKind::Completeness).unwrap().healthy);
        assert!(!rep.status(SloKind::Coverage).unwrap().healthy);
    }

    #[test]
    fn freshness_tracks_newest_record_age() {
        let mut store = CosmosStore::new(16, 1);
        let s = StreamName { dc: DcId(3) };
        store.append(s, &[rec(100, 0, 1)], SimTime(100));
        let cfg = QualityConfig::default();
        let now = SimTime(100 + cfg.freshness_target.as_micros() + 1);
        let rep = evaluate(&store, &expected(&[(0, 1)]), 1, now, &cfg).unwrap();
        let status = rep.status(SloKind::Freshness).unwrap();
        assert!(!status.healthy, "one record, older than target");
        assert_eq!(rep.freshness_us.len(), 1);
        assert_eq!(rep.freshness_us[0].1, cfg.freshness_target.as_micros() + 1);
    }

    #[test]
    fn empty_store_is_stale_and_vacuously_complete() {
        let store = CosmosStore::new(16, 1);
        let cfg = QualityConfig::default();
        let rep = evaluate(
            &store,
            &expected(&[]),
            0,
            SimTime(cfg.freshness_target.as_micros() * 2),
            &cfg,
        )
        .unwrap();
        assert_eq!(rep.coverage.value(), 1.0, "no expected pairs → vacuous");
        assert_eq!(rep.completeness.value(), 1.0, "nothing scheduled → vacuous");
        assert!(!rep.status(SloKind::Freshness).unwrap().healthy);
    }
}
