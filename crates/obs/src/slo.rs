//! Data-quality SLOs: target definitions, evaluation, burn rates.
//!
//! The paper's operational stance is that Pingmesh data is only usable if
//! its own quality is tracked: what fraction of expected pod pairs
//! reported (**coverage**), what fraction of scheduled probes became
//! stored records (**completeness**), and how stale the newest stored
//! record is (**freshness**). This module holds the vocabulary: SLO
//! kinds, point-in-time [`SloStatus`] evaluation with burn rates, and
//! gauge publication
//! (`pingmesh_slo_value{slo=...}` / `pingmesh_slo_healthy` /
//! `pingmesh_slo_burn_rate`). The values themselves are computed by the
//! DSA quality job (`pingmesh_dsa::quality`) and the realmode watchdog.

/// The data-quality SLO dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloKind {
    /// Observed (src-pod, dst-pod) pairs ÷ expected pairs, per window.
    Coverage,
    /// Stored probe records ÷ scheduled probes (conservation ledger).
    Completeness,
    /// Age of the newest stored record: `now − newest_ts`, microseconds.
    Freshness,
    /// Age of acknowledged-but-not-fsynced WAL bytes in the durable
    /// store, microseconds. Measures crash exposure: how much acked data
    /// sits only in the OS page cache between checkpoints/syncs.
    WalFlushLag,
}

impl SloKind {
    /// Stable label value used in metrics and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SloKind::Coverage => "coverage",
            SloKind::Completeness => "completeness",
            SloKind::Freshness => "freshness",
            SloKind::WalFlushLag => "wal_flush_lag",
        }
    }

    /// Ratio SLOs degrade downward; the age-valued kinds (freshness, WAL
    /// flush lag) degrade upward.
    fn higher_is_better(self) -> bool {
        !matches!(self, SloKind::Freshness | SloKind::WalFlushLag)
    }

    /// All kinds, in display order.
    pub fn all() -> [SloKind; 4] {
        [
            SloKind::Coverage,
            SloKind::Completeness,
            SloKind::Freshness,
            SloKind::WalFlushLag,
        ]
    }
}

/// One SLO's point-in-time evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// Which SLO.
    pub kind: SloKind,
    /// Measured value: a ratio in `[0, 1]` for coverage/completeness, an
    /// age in microseconds for freshness.
    pub value: f64,
    /// Configured target (same unit as `value`).
    pub target: f64,
    /// Whether the measurement meets the target.
    pub healthy: bool,
    /// Error-budget burn rate: 0 when comfortably inside the target,
    /// 1.0 exactly at the target, growing as the breach deepens.
    pub burn_rate: f64,
}

/// Evaluates one SLO measurement against its target.
///
/// Ratio kinds (coverage, completeness): healthy iff `value >= target`;
/// burn = shortfall ÷ error budget `(1 − target)`. Freshness: healthy iff
/// `value <= target`; burn = `value / target`.
pub fn evaluate(kind: SloKind, value: f64, target: f64) -> SloStatus {
    let (healthy, burn_rate) = if kind.higher_is_better() {
        let budget = (1.0 - target).max(1e-9);
        (value >= target, ((target - value).max(0.0) / budget))
    } else {
        let target = target.max(1e-9);
        (value <= target, value / target)
    };
    SloStatus {
        kind,
        value,
        target,
        healthy,
        burn_rate,
    }
}

/// Publishes a set of statuses as gauges on the global registry:
/// `pingmesh_slo_value{slo=...}`, `pingmesh_slo_healthy{slo=...}` (0/1),
/// `pingmesh_slo_burn_rate{slo=...}`.
pub fn publish(statuses: &[SloStatus]) {
    let r = crate::registry();
    for s in statuses {
        let labels = [("slo", s.kind.as_str())];
        r.gauge_with("pingmesh_slo_value", &labels).set(s.value);
        r.gauge_with("pingmesh_slo_healthy", &labels)
            .set(if s.healthy { 1.0 } else { 0.0 });
        r.gauge_with("pingmesh_slo_burn_rate", &labels)
            .set(s.burn_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_slo_evaluation() {
        let ok = evaluate(SloKind::Coverage, 0.95, 0.9);
        assert!(ok.healthy);
        assert_eq!(ok.burn_rate, 0.0);
        let bad = evaluate(SloKind::Coverage, 0.5, 0.9);
        assert!(!bad.healthy);
        // Shortfall 0.4 over a 0.1 budget → burning 4x.
        assert!((bad.burn_rate - 4.0).abs() < 1e-9);
    }

    #[test]
    fn freshness_slo_inverts_direction() {
        let ok = evaluate(SloKind::Freshness, 100.0, 1000.0);
        assert!(ok.healthy);
        assert!((ok.burn_rate - 0.1).abs() < 1e-9);
        let bad = evaluate(SloKind::Freshness, 3000.0, 1000.0);
        assert!(!bad.healthy);
        assert!((bad.burn_rate - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wal_flush_lag_is_age_valued_and_tracked() {
        // Lower is better, like freshness: 0 µs lag is perfect health.
        assert!(!SloKind::WalFlushLag.higher_is_better());
        let ok = evaluate(SloKind::WalFlushLag, 0.0, 2_000_000.0);
        assert!(ok.healthy);
        assert_eq!(ok.burn_rate, 0.0);
        let bad = evaluate(SloKind::WalFlushLag, 6_000_000.0, 2_000_000.0);
        assert!(!bad.healthy);
        assert!((bad.burn_rate - 3.0).abs() < 1e-9);
        assert_eq!(SloKind::all().len(), 4);
    }

    #[test]
    fn publish_sets_gauges() {
        let s = evaluate(SloKind::Freshness, 500.0, 1000.0);
        publish(&[s]);
        let snap = crate::registry().snapshot();
        let v = snap
            .samples
            .iter()
            .find(|(id, _)| {
                id.name == "pingmesh_slo_value"
                    && id.labels == vec![("slo".to_string(), "freshness".to_string())]
            })
            .map(|(_, v)| v.clone());
        assert!(matches!(v, Some(crate::SampleValue::Gauge(g)) if (g - 500.0).abs() < 1e-9));
    }
}
