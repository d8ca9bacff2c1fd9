//! Query-shaped views over the frozen window aggregates.
//!
//! Each dashboard query parses into an [`ApiQuery`], and each query
//! builds its response body **deterministically**: every row collection
//! is an explicitly sorted `Vec` (never a map serialization), so the same
//! store state always yields the same bytes. That byte-stability is what
//! makes the per-window result cache provable — a cached body must equal
//! a from-scratch rebuild bit for bit, and the check-harness oracle
//! asserts exactly that.

use pingmesh_dsa::agg::{merge_map, HistKey, LatencyScope, ScopeStats, WindowAggregate};
use pingmesh_dsa::store::{CosmosStore, PARTIAL_WINDOW};
use pingmesh_types::{DcId, LatencyHistogram, PairStats, SimTime};
use serde::Serialize;

/// Granularity of the drop-rate heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeatmapLevel {
    /// pod × pod cells (intra-DC).
    Pod,
    /// podset × podset cells (intra-DC), with p99 from the podset matrix.
    Podset,
}

impl HeatmapLevel {
    fn label(self) -> &'static str {
        match self {
            HeatmapLevel::Pod => "pod",
            HeatmapLevel::Podset => "podset",
        }
    }
}

/// A parsed dashboard query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiQuery {
    /// `GET /api/windows` — hot store status (never cached).
    Windows,
    /// `GET /api/cdf?dc=&scope=&from=&to=` — per-scope latency CDF.
    Cdf {
        /// Source data center.
        dc: DcId,
        /// Latency scope (intrapod / interpod / interdc).
        scope: LatencyScope,
        /// Window start (µs, 10-min aligned).
        from: SimTime,
        /// Window end (µs, 10-min aligned, exclusive).
        to: SimTime,
    },
    /// `GET /api/heatmap?level=&from=&to=` — drop-rate heatmap cells.
    Heatmap {
        /// Cell granularity.
        level: HeatmapLevel,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// `GET /api/sla?from=&to=` — SLA rollups per DC / DC-pair / podset
    /// / service.
    Sla {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
}

/// Why a request failed to parse into an [`ApiQuery`].
#[derive(Debug)]
pub enum QueryError {
    /// Path is not an API route (404).
    NotFound,
    /// Path is an API route but the parameters are unusable (400).
    Bad(&'static str),
}

fn param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?
        .split('&')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn parse_window(query: Option<&str>) -> Result<(SimTime, SimTime), QueryError> {
    let from: u64 = param(query, "from")
        .ok_or(QueryError::Bad("missing from="))?
        .parse()
        .map_err(|_| QueryError::Bad("bad from= value"))?;
    let to: u64 = param(query, "to")
        .ok_or(QueryError::Bad("missing to="))?
        .parse()
        .map_err(|_| QueryError::Bad("bad to= value"))?;
    let (from, to) = (SimTime(from), SimTime(to));
    // The partial-aggregate store only answers 10-min-aligned ranges;
    // reject the rest here rather than tripping its alignment asserts.
    if from.window_start(PARTIAL_WINDOW) != from || to.window_start(PARTIAL_WINDOW) != to {
        return Err(QueryError::Bad("from=/to= must be 10-min aligned (µs)"));
    }
    if from > to {
        return Err(QueryError::Bad("from= must not exceed to="));
    }
    Ok((from, to))
}

impl ApiQuery {
    /// Parses a request path (with query string) into a query.
    pub fn parse(path: &str, query: Option<&str>) -> Result<Self, QueryError> {
        match path {
            "/api/windows" => Ok(ApiQuery::Windows),
            "/api/cdf" => {
                let dc: u32 = param(query, "dc")
                    .ok_or(QueryError::Bad("missing dc="))?
                    .parse()
                    .map_err(|_| QueryError::Bad("bad dc= value"))?;
                let scope = match param(query, "scope") {
                    Some("intrapod") => LatencyScope::IntraPod,
                    Some("interpod") => LatencyScope::InterPod,
                    Some("interdc") => LatencyScope::InterDc,
                    Some(_) => return Err(QueryError::Bad("bad scope= value")),
                    None => return Err(QueryError::Bad("missing scope=")),
                };
                let (from, to) = parse_window(query)?;
                Ok(ApiQuery::Cdf {
                    dc: DcId(dc),
                    scope,
                    from,
                    to,
                })
            }
            "/api/heatmap" => {
                let level = match param(query, "level") {
                    Some("pod") => HeatmapLevel::Pod,
                    Some("podset") => HeatmapLevel::Podset,
                    Some(_) => return Err(QueryError::Bad("bad level= value")),
                    None => return Err(QueryError::Bad("missing level=")),
                };
                let (from, to) = parse_window(query)?;
                Ok(ApiQuery::Heatmap { level, from, to })
            }
            "/api/sla" => {
                let (from, to) = parse_window(query)?;
                Ok(ApiQuery::Sla { from, to })
            }
            _ => Err(QueryError::NotFound),
        }
    }

    /// Canonical cache key: rebuilt from the parsed fields in fixed
    /// order, so `?to=X&from=Y` and `?from=Y&to=X` share an entry.
    pub fn cache_key(&self) -> String {
        match self {
            ApiQuery::Windows => "windows".into(),
            ApiQuery::Cdf {
                dc,
                scope,
                from,
                to,
            } => format!(
                "cdf?dc={}&scope={}&from={}&to={}",
                dc.0,
                scope_label(*scope),
                from.as_micros(),
                to.as_micros()
            ),
            ApiQuery::Heatmap { level, from, to } => format!(
                "heatmap?level={}&from={}&to={}",
                level.label(),
                from.as_micros(),
                to.as_micros()
            ),
            ApiQuery::Sla { from, to } => {
                format!("sla?from={}&to={}", from.as_micros(), to.as_micros())
            }
        }
    }

    /// The aggregate window this query reads, if it reads one
    /// ([`ApiQuery::Windows`] reads live store state instead).
    pub fn range(&self) -> Option<(SimTime, SimTime)> {
        match *self {
            ApiQuery::Windows => None,
            ApiQuery::Cdf { from, to, .. }
            | ApiQuery::Heatmap { from, to, .. }
            | ApiQuery::Sla { from, to } => Some((from, to)),
        }
    }

    /// Route label for bounded-cardinality metrics.
    pub fn route(&self) -> &'static str {
        match self {
            ApiQuery::Windows => "windows",
            ApiQuery::Cdf { .. } => "cdf",
            ApiQuery::Heatmap { .. } => "heatmap",
            ApiQuery::Sla { .. } => "sla",
        }
    }

    /// View label for per-view metrics: [`ApiQuery::route`] with the
    /// heatmap split by level, since the two read different maps.
    pub fn view(&self) -> &'static str {
        match self {
            ApiQuery::Heatmap {
                level: HeatmapLevel::Pod,
                ..
            } => "heatmap_pod",
            ApiQuery::Heatmap {
                level: HeatmapLevel::Podset,
                ..
            } => "heatmap_podset",
            _ => self.route(),
        }
    }

    /// Builds the response body from the store — the **only** body
    /// constructor, shared by cache misses, the warm path, and the
    /// coherence oracle: [`ApiQuery::gather`] then [`ApiQuery::render`].
    /// Deterministic: sorted rows, fixed field order. A serialization
    /// failure is a server bug, but it surfaces as `Err` (the tier
    /// answers 500) rather than a panic that would take every connection
    /// down with it.
    pub fn build(&self, store: &CosmosStore) -> Result<Vec<u8>, &'static str> {
        match self {
            ApiQuery::Windows => StoreStatus::read(store).render(),
            _ => self.render(&self.gather(store)),
        }
    }

    /// The store half of [`ApiQuery::build`], and the only part that
    /// needs the store (so the only part a tier runs under its lock):
    /// merges, out of each ingest-time partial in the query's range, the
    /// maps this view renders and nothing else. Every other map of the
    /// returned aggregate stays empty — per-server histograms and
    /// server-pair counts, the bulk of a partial, are read by no view.
    ///
    /// | view           | maps merged                                        |
    /// |----------------|----------------------------------------------------|
    /// | CDF            | the one `hists` entry [`HistKey::syn`] names        |
    /// | SLA            | `per_dc`, `per_dc_pair`, `per_podset`, `per_service` |
    /// | pod heatmap    | `pod_pairs`                                        |
    /// | podset heatmap | `podset_pairs`, `podset_matrix`                    |
    pub fn gather(&self, store: &CosmosStore) -> WindowAggregate {
        let mut out = WindowAggregate::default();
        let Some((from, to)) = self.range() else {
            return out;
        };
        for part in store.partials_in(from, to) {
            match *self {
                ApiQuery::Windows => {}
                ApiQuery::Cdf { dc, scope, .. } => {
                    let key = HistKey::syn(dc, scope);
                    if let Some(h) = part.hists.get(&key) {
                        out.hists.entry(key).or_default().merge(h);
                    }
                }
                ApiQuery::Heatmap {
                    level: HeatmapLevel::Pod,
                    ..
                } => merge_map(&mut out.pod_pairs, &part.pod_pairs, PairStats::merge),
                ApiQuery::Heatmap {
                    level: HeatmapLevel::Podset,
                    ..
                } => {
                    merge_map(&mut out.podset_pairs, &part.podset_pairs, PairStats::merge);
                    merge_map(
                        &mut out.podset_matrix,
                        &part.podset_matrix,
                        LatencyHistogram::merge,
                    );
                }
                ApiQuery::Sla { .. } => {
                    merge_map(&mut out.per_dc, &part.per_dc, ScopeStats::merge);
                    merge_map(&mut out.per_dc_pair, &part.per_dc_pair, ScopeStats::merge);
                    merge_map(&mut out.per_podset, &part.per_podset, ScopeStats::merge);
                    merge_map(&mut out.per_service, &part.per_service, ScopeStats::merge);
                }
            }
        }
        out
    }

    /// The store-free half of [`ApiQuery::build`]: sorts and serializes
    /// the maps this view reads out of `agg`. Rendering the store's
    /// whole merge of a range and rendering [`ApiQuery::gather`]'s
    /// projection of it give the same bytes — the differential the
    /// coherence oracle checks.
    /// [`ApiQuery::Windows`] renders live store status, not an aggregate
    /// (see [`StoreStatus`]), and is an `Err` here.
    pub fn render(&self, agg: &WindowAggregate) -> Result<Vec<u8>, &'static str> {
        match *self {
            ApiQuery::Windows => Err("windows renders store status, not an aggregate"),
            ApiQuery::Cdf {
                dc,
                scope,
                from,
                to,
            } => build_cdf(agg, dc, scope, from, to),
            ApiQuery::Heatmap { level, from, to } => build_heatmap(agg, level, from, to),
            ApiQuery::Sla { from, to } => build_sla(agg, from, to),
        }
    }
}

fn scope_label(scope: LatencyScope) -> &'static str {
    match scope {
        LatencyScope::IntraPod => "intrapod",
        LatencyScope::InterPod => "interpod",
        LatencyScope::InterDc => "interdc",
    }
}

/// The live store status `GET /api/windows` reports: a handful of
/// integers copied out of the store, so a tier reads them under its lock
/// and serializes after releasing it.
#[derive(Debug, Serialize)]
pub struct StoreStatus {
    newest_us: u64,
    frozen_before_us: u64,
    partial_count: u64,
    record_count: u64,
    empty: bool,
}

impl StoreStatus {
    /// Copies the status out of the store.
    pub fn read(store: &CosmosStore) -> Self {
        let newest = store.newest_ts();
        Self {
            newest_us: newest.map_or(0, |t| t.as_micros()),
            frozen_before_us: store.frozen_before().map_or(0, |t| t.as_micros()),
            partial_count: store.partial_count() as u64,
            record_count: store.record_count(),
            empty: newest.is_none(),
        }
    }

    /// The `/api/windows` body.
    pub fn render(&self) -> Result<Vec<u8>, &'static str> {
        serde_json::to_vec(self).map_err(|_| "windows serialize failed")
    }
}

#[derive(Serialize)]
struct CdfPoint {
    rtt_us: u64,
    cum: f64,
}

#[derive(Serialize)]
struct CdfPayload {
    dc: u32,
    scope: &'static str,
    from_us: u64,
    to_us: u64,
    count: u64,
    p50_us: u64,
    p99_us: u64,
    points: Vec<CdfPoint>,
}

fn build_cdf(
    agg: &WindowAggregate,
    dc: DcId,
    scope: LatencyScope,
    from: SimTime,
    to: SimTime,
) -> Result<Vec<u8>, &'static str> {
    let hist = agg.syn_hist(dc, scope);
    let points = hist.map_or(Vec::new(), |h| {
        h.cdf_points()
            .into_iter()
            .map(|(rtt, cum)| CdfPoint {
                rtt_us: rtt.as_micros(),
                cum,
            })
            .collect()
    });
    serde_json::to_vec(&CdfPayload {
        dc: dc.0,
        scope: scope_label(scope),
        from_us: from.as_micros(),
        to_us: to.as_micros(),
        count: hist.map_or(0, |h| h.count()),
        p50_us: hist.and_then(|h| h.p50()).map_or(0, |d| d.as_micros()),
        p99_us: hist.and_then(|h| h.p99()).map_or(0, |d| d.as_micros()),
        points,
    })
    .map_err(|_| "cdf serialize failed")
}

#[derive(Serialize)]
struct HeatCell {
    src: u32,
    dst: u32,
    probes: u64,
    drop_rate: f64,
    p99_us: u64,
}

#[derive(Serialize)]
struct HeatmapPayload {
    level: &'static str,
    from_us: u64,
    to_us: u64,
    cells: Vec<HeatCell>,
}

fn build_heatmap(
    agg: &WindowAggregate,
    level: HeatmapLevel,
    from: SimTime,
    to: SimTime,
) -> Result<Vec<u8>, &'static str> {
    let mut cells: Vec<HeatCell> = match level {
        HeatmapLevel::Pod => agg
            .pod_pairs
            .iter()
            .map(|(&(src, dst), stats)| heat_cell(src.0, dst.0, stats, 0))
            .collect(),
        HeatmapLevel::Podset => agg
            .podset_pairs
            .iter()
            .map(|(&(src, dst), stats)| {
                let p99 = agg
                    .podset_matrix
                    .get(&(src, dst))
                    .and_then(|h| h.p99())
                    .map_or(0, |d| d.as_micros());
                heat_cell(src.0, dst.0, stats, p99)
            })
            .collect(),
    };
    cells.sort_unstable_by_key(|c| (c.src, c.dst));
    serde_json::to_vec(&HeatmapPayload {
        level: level.label(),
        from_us: from.as_micros(),
        to_us: to.as_micros(),
        cells,
    })
    .map_err(|_| "heatmap serialize failed")
}

fn heat_cell(src: u32, dst: u32, stats: &PairStats, p99_us: u64) -> HeatCell {
    HeatCell {
        src,
        dst,
        probes: stats.total(),
        drop_rate: stats.drop_rate(),
        p99_us,
    }
}

#[derive(Serialize)]
struct SlaRow {
    id: u32,
    probes: u64,
    drop_rate: f64,
    p50_us: u64,
    p99_us: u64,
}

#[derive(Serialize)]
struct SlaPairRow {
    src: u32,
    dst: u32,
    probes: u64,
    drop_rate: f64,
    p50_us: u64,
    p99_us: u64,
}

#[derive(Serialize)]
struct SlaPayload {
    from_us: u64,
    to_us: u64,
    dcs: Vec<SlaRow>,
    dc_pairs: Vec<SlaPairRow>,
    podsets: Vec<SlaRow>,
    services: Vec<SlaRow>,
}

fn sla_row(id: u32, s: &ScopeStats) -> SlaRow {
    SlaRow {
        id,
        probes: s.stats.total(),
        drop_rate: s.drop_rate(),
        p50_us: s.p50().map_or(0, |d| d.as_micros()),
        p99_us: s.p99().map_or(0, |d| d.as_micros()),
    }
}

fn build_sla(agg: &WindowAggregate, from: SimTime, to: SimTime) -> Result<Vec<u8>, &'static str> {
    let mut dcs: Vec<SlaRow> = agg.per_dc.iter().map(|(dc, s)| sla_row(dc.0, s)).collect();
    dcs.sort_unstable_by_key(|r| r.id);
    let mut dc_pairs: Vec<SlaPairRow> = agg
        .per_dc_pair
        .iter()
        .map(|(&(src, dst), s)| SlaPairRow {
            src: src.0,
            dst: dst.0,
            probes: s.stats.total(),
            drop_rate: s.drop_rate(),
            p50_us: s.p50().map_or(0, |d| d.as_micros()),
            p99_us: s.p99().map_or(0, |d| d.as_micros()),
        })
        .collect();
    dc_pairs.sort_unstable_by_key(|r| (r.src, r.dst));
    let mut podsets: Vec<SlaRow> = agg
        .per_podset
        .iter()
        .map(|(ps, s)| sla_row(ps.0, s))
        .collect();
    podsets.sort_unstable_by_key(|r| r.id);
    let mut services: Vec<SlaRow> = agg
        .per_service
        .iter()
        .map(|(svc, s)| sla_row(svc.0, s))
        .collect();
    services.sort_unstable_by_key(|r| r.id);
    serde_json::to_vec(&SlaPayload {
        from_us: from.as_micros(),
        to_us: to.as_micros(),
        dcs,
        dc_pairs,
        podsets,
        services,
    })
    .map_err(|_| "sla serialize failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 600_000_000;

    #[test]
    fn parse_accepts_canonical_queries_any_param_order() {
        let q = ApiQuery::parse(
            "/api/cdf",
            Some(&format!("to={W}&dc=2&scope=interpod&from=0")),
        )
        .unwrap();
        assert_eq!(
            q,
            ApiQuery::Cdf {
                dc: DcId(2),
                scope: LatencyScope::InterPod,
                from: SimTime(0),
                to: SimTime(W),
            }
        );
        assert_eq!(
            q.cache_key(),
            format!("cdf?dc=2&scope=interpod&from=0&to={W}")
        );
        let h =
            ApiQuery::parse("/api/heatmap", Some(&format!("level=podset&from=0&to={W}"))).unwrap();
        assert_eq!(h.route(), "heatmap");
        assert_eq!(h.range(), Some((SimTime(0), SimTime(W))));
        assert!(matches!(
            ApiQuery::parse("/api/windows", None).unwrap(),
            ApiQuery::Windows
        ));
    }

    #[test]
    fn parse_rejects_misaligned_or_malformed_windows() {
        for (path, query) in [
            ("/api/sla", "from=1&to=600000000"),    // misaligned from
            ("/api/sla", "from=0&to=600000001"),    // misaligned to
            ("/api/sla", "from=600000000&to=0"),    // inverted
            ("/api/sla", "from=0"),                 // missing to
            ("/api/sla", "from=zero&to=600000000"), // non-numeric
            ("/api/cdf", "dc=0&scope=warp&from=0&to=600000000"), // bad scope
            ("/api/heatmap", "level=rack&from=0&to=600000000"), // bad level
        ] {
            assert!(
                matches!(ApiQuery::parse(path, Some(query)), Err(QueryError::Bad(_))),
                "{path}?{query} must be a 400"
            );
        }
        assert!(matches!(
            ApiQuery::parse("/api/nope", None),
            Err(QueryError::NotFound)
        ));
    }

    #[test]
    fn bodies_are_deterministic_across_rebuilds() {
        use pingmesh_types::{
            PodId, PodsetId, ProbeKind, ProbeOutcome, QosClass, ServerId, SimDuration,
        };
        let mut store = CosmosStore::new(64, 1);
        let recs: Vec<pingmesh_types::ProbeRecord> = (0..500u64)
            .map(|i| pingmesh_types::ProbeRecord {
                ts: SimTime(i * 1_000_000),
                src: ServerId((i % 8) as u32),
                dst: ServerId(((i + 1) % 8) as u32),
                src_pod: PodId((i % 4) as u32),
                dst_pod: PodId(((i + 1) % 4) as u32),
                src_podset: PodsetId((i % 2) as u32),
                dst_podset: PodsetId(((i + 1) % 2) as u32),
                src_dc: DcId(0),
                dst_dc: DcId(0),
                kind: ProbeKind::TcpSyn,
                qos: QosClass::High,
                src_port: 40_000,
                dst_port: 8_100,
                outcome: if i % 11 == 0 {
                    ProbeOutcome::Timeout
                } else {
                    ProbeOutcome::Success {
                        rtt: SimDuration::from_micros(150 + i % 400),
                    }
                },
            })
            .collect();
        store.append(
            pingmesh_dsa::store::StreamName { dc: DcId(0) },
            &recs,
            SimTime(0),
        );
        for q in [
            ApiQuery::Windows,
            ApiQuery::Cdf {
                dc: DcId(0),
                scope: LatencyScope::InterPod,
                from: SimTime(0),
                to: SimTime(W),
            },
            ApiQuery::Heatmap {
                level: HeatmapLevel::Pod,
                from: SimTime(0),
                to: SimTime(W),
            },
            ApiQuery::Heatmap {
                level: HeatmapLevel::Podset,
                from: SimTime(0),
                to: SimTime(W),
            },
            ApiQuery::Sla {
                from: SimTime(0),
                to: SimTime(W),
            },
        ] {
            let a = q.build(&store).expect("build");
            let b = q.build(&store).expect("build");
            assert_eq!(a, b, "{} must be byte-stable", q.cache_key());
            assert!(!a.is_empty());
        }
    }

    /// Two streams, seven windows (the last still filling), inter-DC
    /// traffic both ways and a service covering half the servers: every
    /// map a view reads is populated, and so are the ones none reads.
    fn two_stream_store() -> CosmosStore {
        use pingmesh_dsa::store::StreamName;
        use pingmesh_types::{
            PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
        };
        let mut store = CosmosStore::new(64, 1);
        let mut services = pingmesh_topology::ServiceMap::new();
        services
            .register("search", (0..12).map(ServerId).collect::<Vec<_>>())
            .unwrap();
        store
            .set_service_map(std::sync::Arc::new(services))
            .unwrap();
        for dc in 0..2u32 {
            let recs: Vec<ProbeRecord> = (0..2_100u64)
                .map(|i| {
                    let src = dc * 12 + (i % 12) as u32;
                    let inter_dc = i % 5 == 0;
                    let dst_dc = if inter_dc { 1 - dc } else { dc };
                    let dst = dst_dc * 12 + ((i * 7 + 1) % 12) as u32;
                    ProbeRecord {
                        ts: SimTime(i * (7 * W / 2_100)),
                        src: ServerId(src),
                        dst: ServerId(dst),
                        src_pod: PodId(src / 2),
                        dst_pod: PodId(dst / 2),
                        src_podset: PodsetId(src / 6),
                        dst_podset: PodsetId(dst / 6),
                        src_dc: DcId(dc),
                        dst_dc: DcId(dst_dc),
                        kind: if i % 9 == 0 {
                            ProbeKind::TcpPayload(1_000)
                        } else {
                            ProbeKind::TcpSyn
                        },
                        qos: if i % 4 == 0 {
                            QosClass::Low
                        } else {
                            QosClass::High
                        },
                        src_port: 40_000,
                        dst_port: 8_100,
                        outcome: if i % 11 == 0 {
                            ProbeOutcome::Timeout
                        } else {
                            ProbeOutcome::Success {
                                rtt: SimDuration::from_micros(150 + (i * 37) % 4_000),
                            }
                        },
                    }
                })
                .collect();
            store.append(StreamName { dc: DcId(dc) }, &recs, SimTime(7 * W - 1));
        }
        store
    }

    #[test]
    fn projection_renders_the_same_bytes_as_the_full_merge() {
        let store = two_stream_store();
        assert_eq!(store.frozen_before(), Some(SimTime(6 * W)));
        let huge = (u64::MAX / W) * W;
        let mut compared = 0;
        for (from, to) in [(0, W), (W, 7 * W), (3 * W, 3 * W), (0, huge)] {
            let (from, to) = (SimTime(from), SimTime(to));
            let mut queries = vec![
                ApiQuery::Sla { from, to },
                ApiQuery::Heatmap {
                    level: HeatmapLevel::Pod,
                    from,
                    to,
                },
                ApiQuery::Heatmap {
                    level: HeatmapLevel::Podset,
                    from,
                    to,
                },
            ];
            for dc in 0..3 {
                for scope in [
                    LatencyScope::IntraPod,
                    LatencyScope::InterPod,
                    LatencyScope::InterDc,
                ] {
                    queries.push(ApiQuery::Cdf {
                        dc: DcId(dc),
                        scope,
                        from,
                        to,
                    });
                }
            }
            let full = store.merged_window_aggregate(from, to);
            if from < to {
                assert!(!full.per_server.is_empty() && !full.per_service.is_empty());
            }
            for q in queries {
                let projected = q.gather(&store);
                assert!(
                    projected.per_server.is_empty() && projected.pairs.is_empty(),
                    "{}: no view reads per-server or per-pair maps",
                    q.cache_key()
                );
                assert_eq!(
                    q.build(&store).expect("build"),
                    q.render(&full).expect("render"),
                    "{}: projection vs full merge",
                    q.cache_key()
                );
                compared += 1;
            }
        }
        assert_eq!(compared, 4 * 12);
    }
}
