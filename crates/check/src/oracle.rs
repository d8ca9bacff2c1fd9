//! Invariant oracles.
//!
//! Each oracle inspects the quiesced state of one run and returns the
//! invariant violations it found. Oracles never mutate the run (the
//! CRDT oracle builds *new* stores and aggregates from copies); a clean
//! run returns no violations from any of them.
//!
//! The five families, per the harness design:
//!
//! 1. **Probe conservation** — every probe an agent observed is stored,
//!    still buffered, discarded, or was unresolvable; nothing vanishes.
//! 2. **CRDT laws** — window aggregates and latency histograms merge
//!    commutatively and associatively, and re-ingesting the same records
//!    shuffled into different batches/extents/streams yields a bit-equal
//!    merged aggregate (shard-partition independence). The store's
//!    merge-based rollup equals a from-raw rebuild at 1, 2, and max
//!    worker threads.
//! 3. **Quantile sanity** — histogram quantiles are monotone in `q`,
//!    stay inside `[min, max]`, and track the exact nearest-rank
//!    quantile of the raw samples to within one log-bucket.
//! 4. **SLA row consistency** — drop rates are finite and in `[0, 1]`,
//!    p50 ≤ p99, and every per-scope family's outcome counts sum to the
//!    aggregate's record count.
//! 5. **Scan equivalence** — windowed chunked scans concatenate to
//!    exactly the oracle's own record-by-record filter (`records_in`).
//! 6. **Data-quality SLOs** — the quality job's coverage and
//!    completeness ratios equal ground truth derived independently: the
//!    oracle's filter for observed pod pairs, and the probe-conservation
//!    ledger (`stored + discarded`) for the completeness denominator.
//! 7. **Crash recovery** — the run's records re-ingested into a durable
//!    store, checkpointed at a seed-derived point and crashed at one of
//!    three seed-chosen points (a checkpoint written but never committed,
//!    committed but not collected, or a torn WAL tail), recover to a
//!    store observably identical to an in-memory re-ingest of the same
//!    batches: counts, bit-equal merged aggregates, scans, and every
//!    windowed API body. No acknowledged record is ever lost; the
//!    unacknowledged torn tail never surfaces.
//! 8. **Mitigation safety** — a replay of the mitigation engine's
//!    transition log never exceeds any tier's drain budget, never
//!    re-drains a device inside its cooldown, and at quiescence the
//!    engine's state mirrors the fabric: drained switches are out of
//!    ECMP, drained podsets are out of pinglist generation, and nothing
//!    is excluded that the engine does not own.

use crate::rng::XorShift;
use crate::scenario::ScenarioSpec;
use pingmesh_core::Orchestrator;
use pingmesh_dsa::{CosmosStore, ScopeStats, StreamName, WindowAggregate, PARTIAL_WINDOW};
use pingmesh_types::quantile::quantile_in_place;
use pingmesh_types::{DcId, PodId, ProbeRecord, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One invariant violation: which oracle tripped, and on what.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Oracle family, e.g. `"conservation"`.
    pub oracle: String,
    /// Human-readable description with the offending numbers.
    pub detail: String,
}

fn violation(oracle: &str, detail: String) -> Violation {
    Violation {
        oracle: oracle.to_string(),
        detail,
    }
}

/// The oracles' own raw read: every stored record with `ts` in
/// `[from, to)`, in stream-then-append order, by brute force. It asks the
/// store for its *whole* history — which only ever takes the scan's
/// whole-extent branch — and filters record by record, so it shares no
/// logic with the extent skip, the sorted trim or the unsorted-run split
/// that a windowed scan exercises.
fn records_in(store: &CosmosStore, from: SimTime, to: SimTime) -> Vec<ProbeRecord> {
    let all = store.scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX));
    let in_window = all.records().filter(|r| r.ts >= from && r.ts < to);
    in_window.collect()
}

/// Smallest 10-min-aligned time strictly after every stored record.
fn aligned_end(orch: &Orchestrator) -> SimTime {
    let w = PARTIAL_WINDOW.as_micros();
    SimTime((orch.now().0 / w + 1) * w)
}

/// Oracle 1: probe conservation.
///
/// At quiescence: `Σ observed == probes_run` and
/// `Σ observed == stored + Σ buffered + Σ discarded + Σ unresolved`.
/// The upload loop is synchronous, so no batch may still be in flight.
pub fn check_conservation(orch: &Orchestrator) -> Vec<Violation> {
    let mut out = Vec::new();
    let topo = orch.net().topology().clone();
    let mut observed = 0u64;
    let mut buffered = 0u64;
    let mut discarded = 0u64;
    let mut unresolved = 0u64;
    for s in topo.servers() {
        let a = orch.agent(s);
        observed += a.probes_observed();
        buffered += a.buffered_records();
        discarded += a.discarded_total();
        unresolved += a.unresolved_probes();
        if a.has_pending_upload() {
            out.push(violation(
                "conservation",
                format!("server {} has an in-flight upload at quiescence", s.0),
            ));
        }
    }
    let probes_run = orch.outputs().probes_run;
    if observed != probes_run {
        out.push(violation(
            "conservation",
            format!("agents observed {observed} probes but the sim ran {probes_run}"),
        ));
    }
    let stored = orch.pipeline().store.record_count();
    let accounted = stored + buffered + discarded + unresolved;
    if observed != accounted {
        out.push(violation(
            "conservation",
            format!(
                "observed {observed} != stored {stored} + buffered {buffered} \
                 + discarded {discarded} + unresolved {unresolved} = {accounted}"
            ),
        ));
    }
    out
}

/// Oracle 2a: the store's merge-based window rollup is bit-equal to a
/// from-raw rebuild (the serial fold).
pub fn check_window_partials(orch: &Orchestrator) -> Vec<Violation> {
    let mut out = Vec::new();
    let end = aligned_end(orch);
    let store = &orch.pipeline().store;
    let merged = store.merged_window_aggregate(SimTime::ZERO, end);
    let records = records_in(store, SimTime::ZERO, end);
    let rebuilt = WindowAggregate::build_with(&records, Some(orch.pipeline().services()));
    if rebuilt != merged {
        out.push(violation(
            "crdt",
            format!(
                "merged partials disagree with a from-raw rebuild ({} vs {} records)",
                merged.record_count, rebuilt.record_count
            ),
        ));
    }
    out
}

/// Oracle 2b: CRDT merge laws plus shard-partition independence — the
/// run's records, shuffled and re-ingested in different batches into a
/// fresh store with different extents and streams, produce a bit-equal
/// merged aggregate.
pub fn check_crdt_reingest(orch: &Orchestrator, spec: &ScenarioSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let end = aligned_end(orch);
    let store = &orch.pipeline().store;
    let services = orch.pipeline().services();
    let mut records = records_in(store, SimTime::ZERO, end);
    if records.is_empty() {
        return out;
    }

    // Merge laws on thirds of the record set.
    let third = records.len().div_ceil(3);
    let parts: Vec<WindowAggregate> = records
        .chunks(third)
        .map(|c| WindowAggregate::build_with(c, Some(services)))
        .collect();
    if parts.len() >= 2 {
        let (a, b) = (&parts[0], &parts[1]);
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        if ab != ba {
            out.push(violation(
                "crdt",
                "WindowAggregate::merge is not commutative".into(),
            ));
        }
        if let Some(c) = parts.get(2) {
            let mut ab_c = ab.clone();
            ab_c.merge(c);
            let mut bc = b.clone();
            bc.merge(c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            if ab_c != a_bc {
                out.push(violation(
                    "crdt",
                    "WindowAggregate::merge is not associative".into(),
                ));
            }
        }
    }

    // Shard-partition independence: shuffle, re-batch, re-shard.
    let mut rng = XorShift::new(spec.seed ^ 0xA5A5_5A5A_D00D_FEED);
    rng.shuffle(&mut records);
    let alt_cap = (spec.extent_cap as usize % 97) + 3;
    let mut fresh = CosmosStore::new(alt_cap, 1);
    fresh
        .set_service_map(Arc::new(services.clone()))
        .expect("an in-memory refold cannot fail");
    let dcs: Vec<DcId> = orch.net().topology().dcs().collect();
    let batches = (spec.reingest_batches.max(1) as usize).min(records.len());
    for chunk in records.chunks(records.len().div_ceil(batches)) {
        let dc = dcs[(rng.next_u64() as usize) % dcs.len()];
        fresh.append(StreamName { dc }, chunk, SimTime::ZERO);
    }
    let original = store.merged_window_aggregate(SimTime::ZERO, end);
    let reingested = fresh.merged_window_aggregate(SimTime::ZERO, end);
    if original != reingested {
        out.push(violation(
            "crdt",
            format!(
                "re-ingesting {} records in {} shuffled batches (extent cap {}) \
                 changed the merged aggregate",
                records.len(),
                batches,
                alt_cap
            ),
        ));
    }
    out
}

const Q_GRID: [f64; 9] = [0.0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0];

fn check_hist_monotone(
    label: &str,
    hist: &pingmesh_types::LatencyHistogram,
    out: &mut Vec<Violation>,
) {
    if hist.is_empty() {
        return;
    }
    let (min, max) = (hist.min().unwrap(), hist.max().unwrap());
    let mut prev = None;
    for q in Q_GRID {
        let v = hist.quantile(q).expect("non-empty histogram");
        if v < min || v > max {
            out.push(violation(
                "quantile",
                format!(
                    "{label}: quantile({q}) = {}µs outside [{}, {}]µs",
                    v.as_micros(),
                    min.as_micros(),
                    max.as_micros()
                ),
            ));
        }
        if let Some(p) = prev {
            if v < p {
                out.push(violation(
                    "quantile",
                    format!("{label}: quantile({q}) decreased"),
                ));
            }
        }
        prev = Some(v);
    }
}

/// One log-bucket is a 1/16-octave (≈4.4%) span and the histogram
/// answers with a clamped geometric midpoint, so "within one bucket of
/// exact" is a ≤ ~10% relative error. A couple of µs of absolute slack
/// covers the sub-32 µs octaves where buckets are integer-quantized.
fn within_one_bucket(hist_us: u64, exact_us: u64) -> bool {
    let tol = (exact_us as f64 * 0.12).max(2.0);
    (hist_us as f64 - exact_us as f64).abs() <= tol
}

/// Oracle 3: quantile monotonicity across every histogram the window
/// produced, plus a cross-check of histogram quantiles against the exact
/// nearest-rank quantile of the raw per-DC samples.
pub fn check_quantiles(orch: &Orchestrator) -> Vec<Violation> {
    let mut out = Vec::new();
    let end = aligned_end(orch);
    let store = &orch.pipeline().store;
    let agg = store.merged_window_aggregate(SimTime::ZERO, end);

    for (k, h) in &agg.hists {
        check_hist_monotone(&format!("hists[{k:?}]"), h, &mut out);
    }
    for (k, h) in &agg.podset_matrix {
        check_hist_monotone(&format!("podset_matrix[{k:?}]"), h, &mut out);
    }
    for (dc, s) in &agg.per_dc {
        check_hist_monotone(&format!("per_dc[{dc:?}]"), &s.latency, &mut out);
    }

    // Exact cross-check: per-DC raw successful RTTs vs the folded hist.
    let records = records_in(store, SimTime::ZERO, end);
    for (&dc, scope) in &agg.per_dc {
        let mut raw: Vec<u64> = records
            .iter()
            .filter(|r| r.src_dc == dc)
            .filter_map(|r| r.outcome.rtt())
            .map(|d| d.as_micros())
            .collect();
        if raw.is_empty() {
            continue;
        }
        if raw.len() as u64 != scope.latency.count() {
            out.push(violation(
                "quantile",
                format!(
                    "per_dc[{dc:?}]: hist holds {} samples but the raw window has {}",
                    scope.latency.count(),
                    raw.len()
                ),
            ));
            continue;
        }
        for q in Q_GRID {
            let exact = *quantile_in_place(&mut raw, q).expect("non-empty");
            let hist = scope.latency.quantile(q).expect("non-empty").as_micros();
            if !within_one_bucket(hist, exact) {
                out.push(violation(
                    "quantile",
                    format!(
                        "per_dc[{dc:?}]: quantile({q}) hist {hist}µs vs exact {exact}µs \
                         is more than one bucket off"
                    ),
                ));
            }
        }
    }
    out
}

fn family_total<'a, K: 'a>(m: impl IntoIterator<Item = (&'a K, &'a ScopeStats)>) -> u64 {
    m.into_iter().map(|(_, s)| s.stats.total()).sum()
}

/// Oracle 4: SLA rows are internally consistent and every scope family's
/// outcome counts sum back to the aggregate's record count.
pub fn check_sla_rows(orch: &Orchestrator) -> Vec<Violation> {
    let mut out = Vec::new();
    let end = aligned_end(orch);
    let w = PARTIAL_WINDOW.as_micros();
    let db = &orch.pipeline().db;
    for k in 0..end.0 / w {
        let window = SimTime(k * w);
        for row in db.window_rows(window) {
            if !row.drop_rate.is_finite() || !(0.0..=1.0).contains(&row.drop_rate) {
                out.push(violation(
                    "sla",
                    format!(
                        "row {:?}@{}: drop_rate {} outside [0, 1]",
                        row.scope, window.0, row.drop_rate
                    ),
                ));
            }
            if row.p50_us > row.p99_us {
                out.push(violation(
                    "sla",
                    format!(
                        "row {:?}@{}: p50 {}µs > p99 {}µs",
                        row.scope, window.0, row.p50_us, row.p99_us
                    ),
                ));
            }
        }
    }

    let agg = orch
        .pipeline()
        .store
        .merged_window_aggregate(SimTime::ZERO, end);
    let n = agg.record_count;
    for (family, total) in [
        ("per_server", family_total(&agg.per_server)),
        ("per_pod", family_total(&agg.per_pod)),
        ("per_podset", family_total(&agg.per_podset)),
        ("per_dc", family_total(&agg.per_dc)),
    ] {
        if total != n {
            out.push(violation(
                "sla",
                format!("{family} outcome counts sum to {total}, expected {n} records"),
            ));
        }
    }
    out
}

/// Oracle 5: the windowed chunked scan concatenates to exactly the
/// oracle's brute-force filter — same records, same (stream, append)
/// order — on an aligned window and on one that straddles buckets.
pub fn check_scan_equivalence(orch: &Orchestrator) -> Vec<Violation> {
    let mut out = Vec::new();
    let store = &orch.pipeline().store;
    let end = aligned_end(orch);
    let w = PARTIAL_WINDOW.as_micros();
    // One aligned window, one straddling window starts mid-bucket.
    let windows = [
        (SimTime::ZERO, end),
        (
            SimTime(w / 2 + 12_345),
            SimTime(end.0.saturating_sub(w / 3)),
        ),
    ];
    for (from, to) in windows {
        let chunks = store.scan_all_window_chunks(from, to);
        let chunked: Vec<ProbeRecord> = chunks.iter().flatten().collect();
        let reference = records_in(store, from, to);
        if chunked != reference {
            out.push(violation(
                "scan",
                format!(
                    "chunked scan of [{}, {}) yields {} records, the record-by-record \
                     filter {} (or differing order/content)",
                    from.0,
                    to.0,
                    chunked.len(),
                    reference.len()
                ),
            ));
        }
    }
    out
}

fn observed_pairs_by_filter(
    store: &CosmosStore,
    expected: &pingmesh_dsa::ExpectedPairs,
    from: SimTime,
    to: SimTime,
) -> BTreeSet<(PodId, PodId)> {
    records_in(store, from, to)
        .iter()
        .filter(|r| expected.contains(r.src_pod, r.dst_pod))
        .map(|r| (r.src_pod, r.dst_pod))
        .collect()
}

/// Oracle 6: data-quality SLO values equal ground truth.
///
/// Two layers:
///
/// * the report the last DSA tick left behind is internally consistent —
///   its coverage numerator matches a `records_in` recount over the
///   report's own window (the job itself uses the windowed scan), its
///   denominators match the installed expectations, and every status is
///   the pure re-evaluation of its own value and target;
/// * a fresh evaluation over the quiesced store agrees with the probe
///   conservation ledger: every probe that was observed and neither
///   unresolvable nor still buffered must be stored or discarded, so the
///   completeness denominator is exactly `stored + discarded` and the
///   numerator exactly `stored`.
///
/// The fresh evaluation republishes the SLO gauges (same values), but
/// never mutates the run itself.
pub fn check_quality(orch: &Orchestrator, spec: &ScenarioSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let pipeline = orch.pipeline();
    let Some(expected) = pipeline.expected_pairs() else {
        out.push(violation(
            "quality",
            "no expected pod pairs installed on the pipeline".into(),
        ));
        return out;
    };
    let expected: &pingmesh_dsa::ExpectedPairs = expected;
    let store = &pipeline.store;

    // (a) The last tick's report, if any, is internally consistent.
    if let Some(q) = pipeline.latest_quality() {
        if q.coverage.den != expected.len() as u64 {
            out.push(violation(
                "quality",
                format!(
                    "coverage denominator {} != {} expected pairs",
                    q.coverage.den,
                    expected.len()
                ),
            ));
        }
        if q.completeness.den != pipeline.scheduled_probes() {
            out.push(violation(
                "quality",
                format!(
                    "completeness denominator {} != scheduled snapshot {}",
                    q.completeness.den,
                    pipeline.scheduled_probes()
                ),
            ));
        }
        // No pair recount here: the report is a snapshot of the store as
        // of the tick, and in-window records legitimately keep arriving
        // afterwards (agents buffer up to a full window). The recount
        // cross-check runs on the fresh quiescence-time evaluation below.
        let recount = observed_pairs_by_filter(store, expected, q.window_start, q.window_end);
        if q.coverage.num > recount.len() as u64 {
            out.push(violation(
                "quality",
                format!(
                    "coverage numerator {} exceeds the final recount {} over [{}, {}) — \
                     the job counted pairs that were never stored",
                    q.coverage.num,
                    recount.len(),
                    q.window_start.0,
                    q.window_end.0
                ),
            ));
        }
        for s in &q.statuses {
            let re = pingmesh_obs::slo::evaluate(s.kind, s.value, s.target);
            if re.healthy != s.healthy || (re.burn_rate - s.burn_rate).abs() > 1e-9 {
                out.push(violation(
                    "quality",
                    format!(
                        "status for {:?} is not a pure function of value and target",
                        s.kind
                    ),
                ));
            }
        }
    } else if spec.sim_minutes >= 22 && orch.outputs().probes_run > 0 {
        // The first 10-min window folds at 20 sim-minutes (window end +
        // ingest lag); past that a quality report must exist.
        out.push(violation(
            "quality",
            format!("no quality report after {} sim-minutes", spec.sim_minutes),
        ));
    }

    // (b) Fresh evaluation at quiescence vs the conservation ledger.
    let topo = orch.net().topology().clone();
    let (mut observed, mut unresolved, mut buffered, mut discarded) = (0u64, 0u64, 0u64, 0u64);
    for s in topo.servers() {
        let a = orch.agent(s);
        observed += a.probes_observed();
        unresolved += a.unresolved_probes();
        buffered += a.buffered_records();
        discarded += a.discarded_total();
    }
    let scheduled_now = observed - unresolved - buffered;
    let report = match pingmesh_dsa::quality::evaluate(
        store,
        expected,
        scheduled_now,
        orch.now(),
        &pipeline.quality_cfg,
    ) {
        Ok(report) => report,
        Err(e) => {
            out.push(violation("quality", format!("evaluation failed: {e}")));
            return out;
        }
    };
    let stored = store.record_count();
    if report.completeness.den != stored + discarded {
        out.push(violation(
            "quality",
            format!(
                "completeness denominator {} != ledger stored {stored} + discarded {discarded}",
                report.completeness.den
            ),
        ));
    }
    if report.completeness.num != stored {
        out.push(violation(
            "quality",
            format!(
                "completeness numerator {} != stored {stored}",
                report.completeness.num
            ),
        ));
    }
    let recount = observed_pairs_by_filter(store, expected, report.window_start, report.window_end);
    if report.coverage.num != recount.len() as u64 || report.coverage.den != expected.len() as u64 {
        out.push(violation(
            "quality",
            format!(
                "quiesced coverage {}/{} != recount {}/{}",
                report.coverage.num,
                report.coverage.den,
                recount.len(),
                expected.len()
            ),
        ));
    }
    out
}

/// The serve oracle's reference body: the store's *whole* merged
/// aggregate for the query's range through the tier's own renderer.
fn full_merge_body(q: &pingmesh_serve::views::ApiQuery, store: &CosmosStore) -> Vec<u8> {
    let (from, to) = q.range().expect("the oracle asks windowed queries only");
    q.render(&store.merged_window_aggregate(from, to))
        .unwrap_or_default()
}

/// Oracle 7: serve-tier cache coherence.
///
/// The query tier's contract is that a cached frozen-window response is
/// byte-identical to a from-scratch rebuild over the same store — the
/// cache may only change *when* a body is built, never *what* it
/// contains. Checked end to end on a fresh store seeded with the run's
/// records (the run itself is never mutated):
///
/// * miss vs hit: the first and second responses to every standard
///   dashboard query carry identical bytes;
/// * cached vs oracle: those bytes equal `full_merge_body` over the
///   same store — the tier merges only the maps a view renders, the
///   oracle merges every map and renders the same way, so a scope the
///   projection dropped shows as a difference — and over the *run's*
///   store (the serving layer inherits shard-partition independence);
/// * conditional GET: replaying the response's `ETag` yields a 304;
/// * invalidation: a late service-map refold must flip the conditional
///   GET back to a fresh 200 whose bytes again equal a pure rebuild —
///   a stale 304 here is the cache serving the past as the present.
pub fn check_serve_coherence(orch: &Orchestrator) -> Vec<Violation> {
    use pingmesh_httpx::Request;
    use pingmesh_serve::views::{ApiQuery, HeatmapLevel};
    use pingmesh_serve::QueryTier;

    let mut out = Vec::new();
    let end = aligned_end(orch);
    let store = &orch.pipeline().store;
    let services = orch.pipeline().services();
    let records = records_in(store, SimTime::ZERO, end);
    if records.is_empty() {
        return out;
    }

    // A private store so the oracle can refold without touching the run.
    let mut fresh = CosmosStore::with_defaults();
    fresh
        .set_service_map(Arc::new(services.clone()))
        .expect("an in-memory refold cannot fail");
    let dcs: Vec<DcId> = orch.net().topology().dcs().collect();
    for dc in &dcs {
        let for_dc: Vec<ProbeRecord> = records
            .iter()
            .filter(|r| r.src_dc == *dc)
            .copied()
            .collect();
        if !for_dc.is_empty() {
            fresh.append(StreamName { dc: *dc }, &for_dc, SimTime::ZERO);
        }
    }
    let shared = Arc::new(parking_lot::Mutex::new(fresh));
    let tier = QueryTier::new(Arc::clone(&shared));

    let w = PARTIAL_WINDOW.as_micros();
    let mut queries: Vec<ApiQuery> = Vec::new();
    for k in 0..end.0 / w {
        let (from, to) = (SimTime(k * w), SimTime((k + 1) * w));
        queries.push(ApiQuery::Sla { from, to });
        queries.push(ApiQuery::Heatmap {
            level: HeatmapLevel::Pod,
            from,
            to,
        });
        queries.push(ApiQuery::Heatmap {
            level: HeatmapLevel::Podset,
            from,
            to,
        });
        for &dc in &dcs {
            queries.push(ApiQuery::Cdf {
                dc,
                scope: pingmesh_dsa::agg::LatencyScope::InterPod,
                from,
                to,
            });
        }
    }

    for q in &queries {
        let key = q.cache_key();
        let path = format!("/api/{key}");
        let miss = tier.respond(&Request::get(&path));
        let hit = tier.respond(&Request::get(&path));
        if miss.status != 200 || hit.status != 200 {
            out.push(violation(
                "serve",
                format!("{key}: status {} then {}", miss.status, hit.status),
            ));
            continue;
        }
        if miss.body != hit.body {
            out.push(violation(
                "serve",
                format!("{key}: cache hit bytes differ from the miss that built them"),
            ));
        }
        let oracle_body = full_merge_body(q, &shared.lock());
        if miss.body != oracle_body {
            out.push(violation(
                "serve",
                format!(
                    "{key}: served {} bytes != {} from a from-scratch rebuild",
                    miss.body.len(),
                    oracle_body.len()
                ),
            ));
        }
        let run_body = full_merge_body(q, store);
        if miss.body != run_body {
            out.push(violation(
                "serve",
                format!("{key}: serving from a re-sharded store changed the bytes"),
            ));
        }
        let etag = miss.header("etag").unwrap_or_default().to_string();
        let mut conditional = Request::get(&path);
        conditional
            .headers
            .push(("if-none-match".into(), etag.clone()));
        if tier.respond(&conditional).status != 304 {
            out.push(violation(
                "serve",
                format!("{key}: matching If-None-Match did not 304"),
            ));
        }
    }

    // Late refold: register one more service and demand every stale
    // validator misses and the rebuilt bytes match a pure rebuild.
    let mut refolded = services.clone();
    let _ = refolded.register("svc-serve-oracle", [pingmesh_types::ServerId(0)]);
    shared
        .lock()
        .set_service_map(Arc::new(refolded))
        .expect("an in-memory refold cannot fail");
    for q in queries.iter().take(3) {
        let key = q.cache_key();
        let path = format!("/api/{key}");
        let before = tier.respond(&Request::get(&path));
        let mut conditional = Request::get(&path);
        conditional.headers.push((
            "if-none-match".into(),
            before.header("etag").unwrap_or_default().to_string(),
        ));
        // `before` itself rebuilt post-refold, so its etag must validate…
        if tier.respond(&conditional).status != 304 {
            out.push(violation(
                "serve",
                format!("{key}: post-refold etag did not validate"),
            ));
        }
        // …and the body must equal a pure rebuild over the refolded store.
        if before.body != full_merge_body(q, &shared.lock()) {
            out.push(violation(
                "serve",
                format!("{key}: post-refold cached bytes diverge from rebuild"),
            ));
        }
    }
    out
}

/// Where [`check_crash_recovery`] kills the durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    /// After a checkpoint's write phase, with appends and a retire having
    /// raced it: the plan never commits and its files stay on disk.
    Uncommitted,
    /// After the checkpoint's manifest rename, before its garbage is
    /// collected.
    BeforeGc,
    /// A torn, never-acknowledged frame at the tail of the newer WAL,
    /// the older one (frozen by a plan that died before writing) intact.
    TornTail,
}

/// Oracle 8: crash recovery (durability).
///
/// Re-ingests the run's stored records into a *durable* store (WAL +
/// segment files in a scratch directory), checkpoints after a
/// seed-derived batch so the history spans both segments and live WAL,
/// takes a second checkpoint's plan at a later seed-derived batch, lets
/// the remaining batches and a window-aligned retire race it, and crashes
/// at a seed-chosen `CrashPoint`. Then it recovers from the files alone
/// and demands the recovered store is observably identical to an
/// in-memory re-ingest of the same batches:
///
/// * record counts and stream-by-stream record sequences match exactly
///   (zero acknowledged-record loss, and the torn tail never surfaces);
/// * merged window aggregates are bit-equal (recovery refolds partials
///   from raw through the same order-independent CRDT fold);
/// * the windowed scan over the recovered store equals the oracle's
///   filter (segment-backed extents obey the same scan contract);
/// * extent boundaries match: the reference seals wherever the durable
///   store checkpoints or plans, so equal chunk lengths pin "a WAL
///   rotation is a seal point" through replay, retire included;
/// * every windowed API body built from the recovered store equals the
///   in-memory reference's bytes;
/// * the recovered store still accepts appends (it came back writable).
pub fn check_crash_recovery(orch: &Orchestrator, spec: &ScenarioSpec) -> Vec<Violation> {
    use pingmesh_serve::views::{ApiQuery, HeatmapLevel};

    let mut out = Vec::new();
    let end = aligned_end(orch);
    let store = &orch.pipeline().store;
    let services = orch.pipeline().services();
    let records = records_in(store, SimTime::ZERO, end);
    if records.is_empty() {
        return out;
    }

    let dir = pingmesh_dsa::unique_dir("check-crash");
    let _guard = pingmesh_dsa::DirGuard::new(dir.clone());
    let mut rng = XorShift::new(spec.seed ^ 0xC4A5_4DEA_D001_5EAF);
    let alt_cap = (spec.extent_cap as usize % 89) + 3;
    let mut durable = match CosmosStore::durable(&dir, alt_cap, 1) {
        Ok(s) => s,
        Err(e) => {
            out.push(violation("crash", format!("durable open failed: {e}")));
            return out;
        }
    };
    if let Err(e) = durable.set_service_map(Arc::new(services.clone())) {
        out.push(violation("crash", format!("service map refused: {e}")));
        return out;
    }
    let mut reference = CosmosStore::new(alt_cap, 1);
    reference
        .set_service_map(Arc::new(services.clone()))
        .expect("an in-memory refold cannot fail");

    let dcs: Vec<DcId> = orch.net().topology().dcs().collect();
    let batches = (spec.reingest_batches.max(1) as usize).min(records.len());
    let chunk = records.len().div_ceil(batches);
    let crash = match rng.next_u64() % 3 {
        0 => CrashPoint::Uncommitted,
        1 => CrashPoint::BeforeGc,
        _ => CrashPoint::TornTail,
    };
    let plan_after = (rng.next_u64() as usize) % batches;
    let checkpoint_after = (rng.next_u64() as usize) % (plan_after + 1);
    let w = PARTIAL_WINDOW.as_micros();
    let horizon = SimTime(rng.next_u64() % (end.0 / w / 2 + 1) * w);
    let mut written = None;
    for (i, batch) in records.chunks(chunk).enumerate() {
        let dc = dcs[(rng.next_u64() as usize) % dcs.len()];
        let t = batch.iter().map(|r| r.ts).max().unwrap_or(SimTime::ZERO);
        if !durable.append(StreamName { dc }, batch, t) {
            out.push(violation(
                "crash",
                format!("durable store refused acked batch {i}"),
            ));
        }
        reference.append(StreamName { dc }, batch, t);
        // The reference seals where the durable store's checkpoints and
        // plans seal; an in-memory checkpoint does nothing else and cannot
        // fail.
        if i == checkpoint_after {
            if let Err(e) = durable.checkpoint() {
                out.push(violation("crash", format!("checkpoint failed: {e}")));
            }
            let _ = reference.checkpoint();
        }
        if i == plan_after {
            // The plan rotates the WAL; a torn-tail crash drops it before
            // writing, the other two write its files.
            match durable.plan_checkpoint() {
                Ok(Some(plan)) if crash != CrashPoint::TornTail => written = Some(plan.write()),
                Ok(_) => {}
                Err(e) => out.push(violation("crash", format!("plan failed: {e}"))),
            }
            let _ = reference.checkpoint();
        }
    }
    // The retire races the checkpoint too: it lands between plan and commit.
    durable.retire_before(horizon);
    reference.retire_before(horizon);

    match (crash, written) {
        (CrashPoint::TornTail, _) => {
            // Torn, never acknowledged, in the WAL the plan rotated to.
            let torn: Vec<ProbeRecord> = records.iter().take(5).copied().collect();
            if let Err(e) = durable.simulate_torn_append(StreamName { dc: dcs[0] }, &torn) {
                out.push(violation("crash", format!("torn-append hook failed: {e}")));
            }
        }
        (_, Some(Err(e))) => out.push(violation("crash", format!("checkpoint write failed: {e}"))),
        (CrashPoint::BeforeGc, Some(Ok(written))) => match durable.commit_checkpoint(written) {
            // Committed, and the process dies before collecting.
            Ok(gc) if gc.committed() => drop(gc),
            Ok(_) => out.push(violation("crash", "the racing plan was refused".into())),
            Err(e) => out.push(violation("crash", format!("commit failed: {e}"))),
        },
        // Uncommitted: the written files stay on disk, named by nothing.
        _ => {}
    }
    // Then the process is gone and only the files remain.
    drop(durable);
    let mut recovered = match CosmosStore::durable(&dir, alt_cap, 1) {
        Ok(s) => s,
        Err(e) => {
            out.push(violation(
                "crash",
                format!("recovery after {crash:?} failed: {e}"),
            ));
            return out;
        }
    };
    if let Err(e) = recovered.set_service_map(Arc::new(services.clone())) {
        out.push(violation(
            "crash",
            format!("refold after recovery failed: {e}"),
        ));
        return out;
    }

    if recovered.record_count() != reference.record_count() {
        out.push(violation(
            "crash",
            format!(
                "recovered {} records, reference has {} (acked loss or torn resurrection)",
                recovered.record_count(),
                reference.record_count()
            ),
        ));
    }
    if recovered.merged_window_aggregate(SimTime::ZERO, end)
        != reference.merged_window_aggregate(SimTime::ZERO, end)
    {
        out.push(violation(
            "crash",
            "recovered merged aggregate is not bit-equal to the reference".into(),
        ));
    }
    // All-stream order is stream (`BTreeMap`) order, then append order,
    // so one comparison covers every stream's sequence.
    let rec_seq = records_in(&recovered, SimTime::ZERO, end);
    let ref_seq = records_in(&reference, SimTime::ZERO, end);
    if rec_seq != ref_seq {
        out.push(violation(
            "crash",
            format!(
                "recovered store holds {} records in sequence, reference {} \
                 (or differing order/content)",
                rec_seq.len(),
                ref_seq.len()
            ),
        ));
    }
    let rec_chunks = recovered.scan_all_window_chunks(SimTime::ZERO, end);
    let ref_chunks = reference.scan_all_window_chunks(SimTime::ZERO, end);
    if !rec_chunks
        .iter()
        .map(|c| c.len())
        .eq(ref_chunks.iter().map(|c| c.len()))
    {
        out.push(violation(
            "crash",
            format!(
                "recovered extents differ in length from the reference's ({} vs {} extents): \
                 a seal point moved",
                rec_chunks.len(),
                ref_chunks.len()
            ),
        ));
    }
    if !rec_chunks.records().eq(rec_seq.iter().copied()) {
        out.push(violation(
            "crash",
            "recovered chunked scan diverges from the record-by-record filter".into(),
        ));
    }

    let mut queries: Vec<ApiQuery> = Vec::new();
    for k in 0..end.0 / w {
        let (from, to) = (SimTime(k * w), SimTime((k + 1) * w));
        queries.push(ApiQuery::Sla { from, to });
        queries.push(ApiQuery::Heatmap {
            level: HeatmapLevel::Pod,
            from,
            to,
        });
    }
    for q in &queries {
        if q.build(&recovered) != q.build(&reference) {
            out.push(violation(
                "crash",
                format!(
                    "{}: recovered API body differs from reference",
                    q.cache_key()
                ),
            ));
        }
    }

    // The recovered store must come back writable.
    let extra = records[0];
    if !recovered.append(StreamName { dc: dcs[0] }, &[extra], end) {
        out.push(violation(
            "crash",
            "recovered store refused a fresh append".into(),
        ));
    }
    out
}

/// Oracle 9: mitigation safety.
///
/// Replays the mitigation engine's transition log and cross-checks it
/// against the fabric's actuated state:
///
/// * **drain budget** — at every instant of the replay, the set of
///   devices holding a drain in any tier stays within the tier's budget
///   (`floor(max_drain_fraction × tier_size)`), and the engine's own
///   per-tier count agrees with the replay at quiescence;
/// * **no flapping** — once a device is verified healthy and un-drained,
///   the engine accepts no new finding for it before the cooldown
///   elapses;
/// * **actuation sync** — a switch holding a drain is excluded from ECMP
///   and an un-drained one is back in; a podset holding a drain is cut
///   out of pinglist generation and an un-drained one re-included; and
///   every exclusion the fabric carries is owned by the engine (its
///   actuator is the only writer of switch isolation).
///
/// Probe conservation across drain / un-drain is not re-proved here —
/// oracle 1 already runs on every scenario, including the mitigation
/// drills this oracle exists for.
pub fn check_mitigation(orch: &Orchestrator) -> Vec<Violation> {
    use pingmesh_controller::MitigationState as St;
    use pingmesh_core::MitDevice;
    use std::collections::HashMap;

    let mut out = Vec::new();
    let eng = orch.mitigation();
    let topo = orch.net().topology().clone();

    let mut held: HashMap<u32, BTreeSet<MitDevice>> = HashMap::new();
    let mut last_undrain: HashMap<MitDevice, SimTime> = HashMap::new();
    let mut last_state: HashMap<MitDevice, St> = HashMap::new();
    let cooldown = eng.config().cooldown;
    for t in eng.transitions() {
        let (tier, size) = t.device.tier(&topo);
        match t.to {
            St::Pending => {
                if let Some(&u) = last_undrain.get(&t.device) {
                    if t.at < u + cooldown {
                        out.push(violation(
                            "mitigation",
                            format!(
                                "{}: re-drained at {} inside the cooldown (un-drained {})",
                                t.device, t.at.0, u.0
                            ),
                        ));
                    }
                }
            }
            St::Drained | St::Escalated => {
                let tier_held = held.entry(tier).or_default();
                tier_held.insert(t.device);
                let budget = eng.tier_budget(size);
                if tier_held.len() > budget {
                    out.push(violation(
                        "mitigation",
                        format!(
                            "tier {tier}: {} devices drained at {} exceeds budget {budget} \
                             (tier size {size})",
                            tier_held.len(),
                            t.at.0
                        ),
                    ));
                }
            }
            St::Undrained => {
                held.entry(tier).or_default().remove(&t.device);
                last_undrain.insert(t.device, t.at);
            }
            St::Verifying => {}
        }
        last_state.insert(t.device, t.to);
    }
    for (&tier, devices) in &held {
        if eng.drained_in_tier(tier) != devices.len() {
            out.push(violation(
                "mitigation",
                format!(
                    "tier {tier}: engine counts {} drained, transition replay holds {}",
                    eng.drained_in_tier(tier),
                    devices.len()
                ),
            ));
        }
    }

    // Actuation must mirror the engine's final state.
    let excluded = orch.excluded_podsets();
    for (&dev, &state) in &last_state {
        let holds = matches!(
            state,
            St::Pending | St::Drained | St::Verifying | St::Escalated
        );
        match dev {
            MitDevice::Switch(sw) => {
                if orch.net().state().faults().is_isolated(sw) != holds {
                    out.push(violation(
                        "mitigation",
                        format!(
                            "{dev}: engine state {state:?} but ECMP isolation is {}",
                            orch.net().state().faults().is_isolated(sw)
                        ),
                    ));
                }
            }
            MitDevice::Podset(ps) => {
                if excluded.contains(&ps) != holds {
                    out.push(violation(
                        "mitigation",
                        format!(
                            "{dev}: engine state {state:?} but pinglist exclusion is {}",
                            excluded.contains(&ps)
                        ),
                    ));
                }
            }
        }
    }
    for &ps in excluded {
        if !matches!(
            last_state.get(&MitDevice::Podset(ps)),
            Some(St::Pending | St::Drained | St::Verifying | St::Escalated)
        ) {
            out.push(violation(
                "mitigation",
                format!(
                    "podset {} excluded from pinglists but the engine never drained it",
                    ps.0
                ),
            ));
        }
    }
    // The engine's actuator is the only writer of switch isolation, so
    // every ECMP exclusion must be engine-owned.
    for sw in topo.switches() {
        if orch.net().state().faults().is_isolated(sw)
            && !matches!(
                last_state.get(&MitDevice::Switch(sw)),
                Some(St::Pending | St::Drained | St::Verifying | St::Escalated)
            )
        {
            out.push(violation(
                "mitigation",
                format!("{sw} is isolated but the engine never drained it"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_types::LatencyHistogram;
    use pingmesh_types::SimDuration;

    #[test]
    fn hist_crdt_laws_hold_on_disjoint_corpora() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..500u64 {
            a.record(SimDuration::from_micros(100 + i));
            b.record(SimDuration::from_micros(50_000 + 37 * i));
            c.record(SimDuration::from_micros(1 + i % 40));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "histogram merge must commute");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "histogram merge must associate");
    }

    #[test]
    fn within_one_bucket_tracks_log_bucket_width() {
        assert!(within_one_bucket(100, 100));
        assert!(within_one_bucket(108, 100), "4.4% bucket + midpoint");
        assert!(!within_one_bucket(130, 100), "a 30% miss is a real bug");
        assert!(within_one_bucket(11, 10), "small octaves get ±2µs slack");
    }
}
