//! Component watchdogs (paper §3.5).
//!
//! "We differentiate Pingmesh as an always-on service from a set of
//! scripts that run periodically. All the components of Pingmesh have
//! watchdogs to watch whether they are running correctly or not, e.g.,
//! whether pinglists are generated correctly, whether the CPU and memory
//! usages are within budget, whether pingmesh data are reported and
//! stored, whether DSA reports network SLAs in time."
//!
//! [`check`] audits a running deployment against exactly those
//! conditions and returns machine-readable findings; a healthy system
//! returns none.

use crate::orchestrator::Orchestrator;
use pingmesh_dsa::WindowAggregate;
use pingmesh_obs::slo::{SloKind, SloStatus};
use pingmesh_topology::Topology;
use pingmesh_types::{PodsetId, SimDuration};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One watchdog finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogFinding {
    /// The controller cluster serves no pinglists (fleet stopped).
    NoPinglistsServed,
    /// Every controller replica is down.
    ControllerClusterDown,
    /// This many agents are fail-closed (not probing).
    AgentsStopped(usize),
    /// Agents had to sanitize controller-supplied entries — the
    /// controller violated the hard safety limits this many times.
    ControllerViolatedSafetyLimits(u64),
    /// No records have reached the store within the freshness horizon.
    StaleStore {
        /// Newest record age, if any records exist at all.
        newest_age: Option<SimDuration>,
    },
    /// The DSA pipeline has produced no SLA rows within the horizon.
    StaleSlaRows,
    /// Agents discarded this many records (upload path unhealthy).
    RecordsDiscarded(u64),
    /// The PA fast path has produced no samples.
    PaSilent,
    /// A data-quality SLO (quality job, 10-min cadence) is out of target.
    SloDegraded {
        /// Which SLO degraded.
        kind: SloKind,
        /// Error-budget burn rate ×1000 (1000 = exactly at target).
        burn_permille: u64,
    },
    /// The durable store's WAL hit IO errors; if it failed closed, the
    /// collector is refusing uploads until a checkpoint heals the log.
    StoreIoErrors {
        /// WAL write errors observed so far.
        errors: u64,
        /// Whether the WAL has failed closed (appends refused).
        failed_closed: bool,
    },
    /// A podset went dark in the last closed window: none of its servers
    /// reported a probe while the rest of the fabric kept failing to
    /// reach them — the Figure-8(b) podset power-down signature. This is
    /// a mitigation trigger: the podset should be drained from pinglist
    /// generation until power returns.
    PodsetPowerDown {
        /// The dark podset.
        podset: PodsetId,
        /// Fraction ×1000 of pairs towards the podset that failed
        /// deterministically (1000 = every observer agrees it is dark).
        confidence_permille: u64,
    },
}

impl WatchdogFinding {
    /// Short static class label — stable across payload values, suitable
    /// as a bounded-cardinality metric label.
    pub fn class(&self) -> &'static str {
        match self {
            WatchdogFinding::NoPinglistsServed => "no_pinglists",
            WatchdogFinding::ControllerClusterDown => "controller_down",
            WatchdogFinding::AgentsStopped(_) => "agents_stopped",
            WatchdogFinding::ControllerViolatedSafetyLimits(_) => "unsafe_pinglist",
            WatchdogFinding::StaleStore { .. } => "stale_store",
            WatchdogFinding::StaleSlaRows => "stale_sla",
            WatchdogFinding::RecordsDiscarded(_) => "records_discarded",
            WatchdogFinding::PaSilent => "pa_silent",
            WatchdogFinding::SloDegraded { kind, .. } => match kind {
                SloKind::Coverage => "slo_coverage",
                SloKind::Completeness => "slo_completeness",
                SloKind::Freshness => "slo_freshness",
                SloKind::WalFlushLag => "slo_wal_flush_lag",
            },
            WatchdogFinding::StoreIoErrors { .. } => "store_io",
            WatchdogFinding::PodsetPowerDown { .. } => "podset_power_down",
        }
    }

    /// One [`WatchdogFinding::SloDegraded`] per SLO that is out of target.
    pub fn degraded_slos(statuses: &[SloStatus]) -> impl Iterator<Item = Self> + '_ {
        statuses
            .iter()
            .filter(|s| !s.healthy)
            .map(|s| WatchdogFinding::SloDegraded {
                kind: s.kind,
                burn_permille: (s.burn_rate * 1000.0).round().max(0.0) as u64,
            })
    }
}

impl fmt::Display for WatchdogFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchdogFinding::NoPinglistsServed => {
                write!(f, "controller serves no pinglists: fleet is stopped")
            }
            WatchdogFinding::ControllerClusterDown => {
                write!(f, "every controller replica is unreachable")
            }
            WatchdogFinding::AgentsStopped(n) => {
                write!(f, "{n} agents are fail-closed and not probing")
            }
            WatchdogFinding::ControllerViolatedSafetyLimits(n) => {
                write!(f, "agents clamped {n} unsafe pinglist entries")
            }
            WatchdogFinding::StaleStore { newest_age } => match newest_age {
                Some(age) => write!(f, "newest stored record is {age} old"),
                None => write!(f, "the store has never received a record"),
            },
            WatchdogFinding::StaleSlaRows => {
                write!(f, "DSA has not reported SLAs within the horizon")
            }
            WatchdogFinding::RecordsDiscarded(n) => {
                write!(f, "{n} records discarded by agents (upload path unhealthy)")
            }
            WatchdogFinding::PaSilent => write!(f, "the PA fast path has no samples"),
            WatchdogFinding::SloDegraded {
                kind,
                burn_permille,
            } => write!(
                f,
                "data-quality SLO `{}` out of target (burn rate {}.{:03}x)",
                kind.as_str(),
                burn_permille / 1000,
                burn_permille % 1000,
            ),
            WatchdogFinding::StoreIoErrors {
                errors,
                failed_closed,
            } => write!(
                f,
                "durable store hit {errors} WAL IO errors{}",
                if *failed_closed {
                    " and failed closed (uploads refused)"
                } else {
                    " (retries absorbed them)"
                }
            ),
            WatchdogFinding::PodsetPowerDown {
                podset,
                confidence_permille,
            } => write!(
                f,
                "{podset} went dark (power-down; {}.{:01}% of observers agree)",
                confidence_permille / 10,
                confidence_permille % 10,
            ),
        }
    }
}

/// Detects podsets that lost power during a window: the podset has
/// servers, *none* of them reported any probe (as a source), and the
/// rest of the fabric has probe data towards it that fails
/// deterministically — so the silence is the podset's, not the
/// pinglist's. Returns `(podset, confidence)` pairs sorted by podset;
/// confidence is the fraction of observing pairs that failed.
pub fn detect_podset_power_down(agg: &WindowAggregate, topo: &Topology) -> Vec<(PodsetId, f64)> {
    let mut sources_seen: HashSet<PodsetId> = HashSet::new();
    // Per-destination-podset observation counts from *other* podsets.
    let mut observed: HashMap<PodsetId, (u64, u64)> = HashMap::new(); // (failed, total)
    for (k, v) in &agg.pairs {
        if v.total() == 0 {
            continue;
        }
        let src_ps = topo.server(k.src).podset;
        let dst_ps = topo.server(k.dst).podset;
        sources_seen.insert(src_ps);
        if src_ps != dst_ps {
            let e = observed.entry(dst_ps).or_default();
            e.1 += 1;
            if v.successful() == 0 && v.is_deterministic_failure() {
                e.0 += 1;
            }
        }
    }
    let mut dark: Vec<(PodsetId, f64)> = observed
        .into_iter()
        .filter(|(ps, (_, total))| !sources_seen.contains(ps) && *total > 0)
        .map(|(ps, (failed, total))| (ps, failed as f64 / total as f64))
        .filter(|&(_, conf)| conf > 0.5)
        .collect();
    dark.sort_by_key(|a| a.0);
    dark
}

/// Store freshness horizon: records older than this (and nothing newer)
/// mean the report path is broken. The paper's end-to-end budget for the
/// near-real-time path is ~20 minutes.
const STORE_HORIZON: SimDuration = SimDuration::from_mins(20);
/// SLA-row freshness horizon: one 10-min window + ingest lag + slack.
const SLA_HORIZON: SimDuration = SimDuration::from_mins(35);

/// Audits a deployment at its current virtual time.
pub fn check(o: &Orchestrator) -> Vec<WatchdogFinding> {
    let now = o.now();
    let mut findings = Vec::new();
    let topo = o.net().topology().clone();

    // Controller health.
    if !o.cluster().any_up(now) {
        findings.push(WatchdogFinding::ControllerClusterDown);
    } else if !o.cluster().serves_pinglists() {
        findings.push(WatchdogFinding::NoPinglistsServed);
    }

    // Agent health.
    let stopped = topo.servers().filter(|&s| o.agent(s).is_stopped()).count();
    if stopped > 0 {
        findings.push(WatchdogFinding::AgentsStopped(stopped));
    }
    let sanitized: u64 = topo.servers().map(|s| o.agent(s).sanitized_entries()).sum();
    if sanitized > 0 {
        findings.push(WatchdogFinding::ControllerViolatedSafetyLimits(sanitized));
    }
    let discarded: u64 = topo.servers().map(|s| o.agent(s).discarded_total()).sum();
    if discarded > 0 {
        findings.push(WatchdogFinding::RecordsDiscarded(discarded));
    }

    // Report path: is data reaching the store? Only meaningful once
    // the system has been up long enough to upload anything. The
    // newest-record probe reads extent time bounds — O(extents),
    // no record scan or copy.
    if now.as_micros() > STORE_HORIZON.as_micros() {
        let newest = o.pipeline().store.newest_ts();
        let fresh = newest.is_some_and(|ts| now.since(ts) <= STORE_HORIZON);
        if !fresh {
            findings.push(WatchdogFinding::StaleStore {
                newest_age: newest.map(|ts| now.since(ts)),
            });
        }
    }

    // Analysis path: are SLA rows being produced on time?
    if now.as_micros() > SLA_HORIZON.as_micros() {
        let horizon_start = now - SLA_HORIZON;
        let fresh = topo.dcs().any(|dc| {
            o.pipeline()
                .db
                .latest(pingmesh_dsa::ScopeKey::Dc(dc))
                .is_some_and(|row| row.window_start >= horizon_start)
        });
        if !fresh {
            findings.push(WatchdogFinding::StaleSlaRows);
        }
    }

    // PA fast path.
    if now.as_micros() > SimDuration::from_mins(10).as_micros()
        && topo.dcs().all(|dc| o.pa().series(dc).is_empty())
    {
        findings.push(WatchdogFinding::PaSilent);
    }

    // Mitigation trigger: a whole podset gone dark (the Figure-8(b)
    // power-down signature) over the last fully-ingested window.
    let w = pingmesh_dsa::PARTIAL_WINDOW;
    if now.as_micros() >= 3 * w.as_micros() {
        let ws = now.window_start(w);
        let agg = o.pipeline().store.window_aggregate(ws - w - w, ws - w);
        for (podset, conf) in detect_podset_power_down(&agg, &topo) {
            findings.push(WatchdogFinding::PodsetPowerDown {
                podset,
                confidence_permille: (conf * 1000.0).round() as u64,
            });
        }
    }

    // Data-quality SLOs, straight off the latest 10-min quality job.
    if let Some(quality) = o.pipeline().latest_quality() {
        findings.extend(WatchdogFinding::degraded_slos(&quality.statuses));
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::OrchestratorConfig;
    use pingmesh_netsim::DcProfile;
    use pingmesh_topology::{ServiceMap, Topology, TopologySpec};
    use pingmesh_types::SimTime;
    use std::sync::Arc;

    fn orch() -> Orchestrator {
        let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
        Orchestrator::new(
            topo,
            vec![DcProfile::ideal()],
            ServiceMap::new(),
            OrchestratorConfig::default(),
        )
    }

    #[test]
    fn healthy_system_has_no_findings() {
        let mut o = orch();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(45));
        let findings = check(&o);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cleared_pinglists_are_reported() {
        let mut o = orch();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(25));
        o.cluster_mut().clear_pinglists();
        // Agents notice at the next poll and fail-close; the store goes
        // stale after the horizon.
        o.run_until(SimTime::ZERO + SimDuration::from_mins(90));
        let findings = check(&o);
        assert!(findings.contains(&WatchdogFinding::NoPinglistsServed));
        assert!(findings
            .iter()
            .any(|f| matches!(f, WatchdogFinding::AgentsStopped(_))));
        assert!(findings
            .iter()
            .any(|f| matches!(f, WatchdogFinding::StaleStore { .. })));
    }

    #[test]
    fn controller_outage_is_reported() {
        let mut o = orch();
        o.run_until(SimTime::ZERO + SimDuration::from_mins(15));
        let now = o.now();
        for i in 0..2 {
            o.cluster_mut().replica_mut(i).add_outage(now, None);
        }
        o.run_until(SimTime::ZERO + SimDuration::from_mins(20));
        let findings = check(&o);
        assert!(findings.contains(&WatchdogFinding::ControllerClusterDown));
    }

    #[test]
    fn store_outage_discards_are_reported() {
        let mut o = orch();
        o.add_store_outage(SimTime::ZERO, SimTime::ZERO + SimDuration::from_mins(40));
        o.run_until(SimTime::ZERO + SimDuration::from_mins(50));
        let findings = check(&o);
        assert!(findings
            .iter()
            .any(|f| matches!(f, WatchdogFinding::RecordsDiscarded(_))));
    }

    #[test]
    fn findings_render_human_readably() {
        let all = [
            WatchdogFinding::NoPinglistsServed,
            WatchdogFinding::ControllerClusterDown,
            WatchdogFinding::AgentsStopped(3),
            WatchdogFinding::ControllerViolatedSafetyLimits(7),
            WatchdogFinding::StaleStore {
                newest_age: Some(SimDuration::from_mins(30)),
            },
            WatchdogFinding::StaleStore { newest_age: None },
            WatchdogFinding::StaleSlaRows,
            WatchdogFinding::RecordsDiscarded(10),
            WatchdogFinding::PaSilent,
            WatchdogFinding::SloDegraded {
                kind: SloKind::Coverage,
                burn_permille: 2_500,
            },
            WatchdogFinding::SloDegraded {
                kind: SloKind::Completeness,
                burn_permille: 1_000,
            },
            WatchdogFinding::SloDegraded {
                kind: SloKind::Freshness,
                burn_permille: 4_000,
            },
            WatchdogFinding::SloDegraded {
                kind: SloKind::WalFlushLag,
                burn_permille: 1_500,
            },
            WatchdogFinding::StoreIoErrors {
                errors: 5,
                failed_closed: false,
            },
            WatchdogFinding::StoreIoErrors {
                errors: 9,
                failed_closed: true,
            },
            WatchdogFinding::PodsetPowerDown {
                podset: pingmesh_types::PodsetId(2),
                confidence_permille: 985,
            },
        ];
        let rendered: std::collections::HashSet<String> =
            all.iter().map(|f| f.to_string()).collect();
        assert_eq!(rendered.len(), all.len(), "descriptions must be distinct");
    }
}
