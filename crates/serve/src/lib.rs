//! The Pingmesh query/serving tier.
//!
//! The paper's endgame is the visualization portal every engineer checks
//! first — "is it the network?" (§5.2). This crate is the read path for
//! that portal at scale: a [`QueryTier`] answers per-scope latency CDFs,
//! pod×pod / podset×podset drop-rate heatmaps, and SLA rollups straight
//! from the ingest-time `WindowAggregate` partials, with a per-window
//! immutable result cache in front.
//!
//! The cache leans on one property of the streaming-DSA design: partial
//! aggregates are CRDT-merged and **frozen once their 10-minute window
//! closes**, so a historical query's result can be built exactly once
//! and served forever — the hit rate approaches 100%. Freshness is
//! proven, not assumed: a lock-free store-epoch check covers the steady
//! state, and an O(windows) `window_version` fingerprint under the store
//! lock catches stragglers and late service-map refolds (see
//! [`cache`]). Conditional GET (`ETag` / `If-None-Match`) turns repeat
//! dashboard polls into 304s.
//!
//! Replicas share the store but own their caches; N replicas behind the
//! realmode VIP round-robin form the "sharded" tier.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod views;

use cache::{CacheEntry, ResultCache};
use parking_lot::Mutex;
use pingmesh_dsa::store::CosmosStore;
use pingmesh_httpx::{Conn, HttpError, Request, Response};
use pingmesh_obs::{Counter, Histogram};
use pingmesh_types::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::{TcpListener, TcpStream};
use views::{ApiQuery, QueryError};

/// Strong ETag of a response body: FNV-1a over the bytes, quoted.
fn etag_of(body: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in body {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("\"{h:016x}\"")
}

/// Per-tier cache statistics (same process, no registry indirection) —
/// what a test or benchmark reads to prove the ≥99% historical hit rate.
#[derive(Debug, Default)]
pub struct TierStats {
    /// Cache hits on fully-frozen ranges.
    pub hits_frozen: AtomicU64,
    /// Cache hits on ranges that were still hot at build time.
    pub hits_hot: AtomicU64,
    /// Cache misses that built a fully-frozen range.
    pub misses_frozen: AtomicU64,
    /// Cache misses that built a still-hot range.
    pub misses_hot: AtomicU64,
    /// Of the hits above (either kind), those that took the store lock
    /// to match the range fingerprint because the epoch had moved —
    /// rung 2 of the freshness ladder. Hits − revalidated are rung 1
    /// (lock-free), misses are rung 3 (rebuild).
    pub revalidated: AtomicU64,
    /// Entries rebuilt because their range's fingerprint changed.
    pub invalidations: AtomicU64,
    /// Conditional GETs answered 304.
    pub not_modified: AtomicU64,
}

impl TierStats {
    /// Hit rate over queries whose range was frozen — the population the
    /// acceptance floor applies to.
    pub fn frozen_hit_rate(&self) -> f64 {
        let hits = self.hits_frozen.load(Ordering::Relaxed) as f64;
        let misses = self.misses_frozen.load(Ordering::Relaxed) as f64;
        if hits + misses == 0.0 {
            return 1.0;
        }
        hits / (hits + misses)
    }
}

/// Cached registry handles for the serve metric families, resolved once
/// per tier so the hot path never takes the registry's read lock by name.
struct ServeMetrics {
    routes: Vec<(&'static str, Arc<Counter>, Arc<Histogram>)>,
    hits_frozen: Arc<Counter>,
    hits_hot: Arc<Counter>,
    misses_frozen: Arc<Counter>,
    misses_hot: Arc<Counter>,
    revalidated: Arc<Counter>,
    invalidations: Arc<Counter>,
    not_modified: Arc<Counter>,
    /// Where a miss goes: waiting for the store lock, then per view
    /// holding it (fingerprint + gather) and rendering with it released.
    store_lock_wait_us: Arc<Histogram>,
    views: Vec<(&'static str, Arc<Histogram>, Arc<Histogram>)>,
}

const ROUTES: [&str; 6] = ["windows", "cdf", "heatmap", "sla", "metrics", "other"];
/// The cacheable views, as [`ApiQuery::view`] labels them.
const VIEWS: [&str; 4] = ["cdf", "heatmap_pod", "heatmap_podset", "sla"];

impl ServeMetrics {
    fn new() -> Self {
        let reg = pingmesh_obs::registry();
        Self {
            routes: ROUTES
                .iter()
                .map(|&route| {
                    (
                        route,
                        reg.counter_with("pingmesh_serve_requests_total", &[("route", route)]),
                        reg.histogram_with("pingmesh_serve_request_us", &[("route", route)]),
                    )
                })
                .collect(),
            hits_frozen: reg.counter_with("pingmesh_serve_cache_hits_total", &[("kind", "frozen")]),
            hits_hot: reg.counter_with("pingmesh_serve_cache_hits_total", &[("kind", "hot")]),
            misses_frozen: reg
                .counter_with("pingmesh_serve_cache_misses_total", &[("kind", "frozen")]),
            misses_hot: reg.counter_with("pingmesh_serve_cache_misses_total", &[("kind", "hot")]),
            revalidated: reg.counter("pingmesh_serve_cache_revalidations_total"),
            invalidations: reg.counter("pingmesh_serve_cache_invalidations_total"),
            not_modified: reg.counter("pingmesh_serve_not_modified_total"),
            store_lock_wait_us: reg.histogram("pingmesh_serve_store_lock_wait_us"),
            views: VIEWS
                .iter()
                .map(|&view| {
                    (
                        view,
                        reg.histogram_with("pingmesh_serve_gather_us", &[("view", view)]),
                        reg.histogram_with("pingmesh_serve_render_us", &[("view", view)]),
                    )
                })
                .collect(),
        }
    }

    fn route(&self, route: &str) -> &(&'static str, Arc<Counter>, Arc<Histogram>) {
        self.routes
            .iter()
            .find(|(r, _, _)| *r == route)
            .unwrap_or(&self.routes[ROUTES.len() - 1])
    }

    /// Times one rebuild of a cacheable view: lock held, then lock free.
    fn note_rebuild(&self, view: &str, gathered: Duration, rendered: Duration) {
        if let Some((_, gather_us, render_us)) = self.views.iter().find(|(v, _, _)| *v == view) {
            gather_us.record_wall(gathered);
            render_us.record_wall(rendered);
        }
    }
}

/// One serve replica: shared store, private result cache.
#[derive(Clone)]
pub struct QueryTier {
    store: Arc<Mutex<CosmosStore>>,
    epoch: Arc<AtomicU64>,
    cache: Arc<ResultCache>,
    stats: Arc<TierStats>,
    metrics: Arc<ServeMetrics>,
}

impl QueryTier {
    /// Builds a tier over a shared store.
    pub fn new(store: Arc<Mutex<CosmosStore>>) -> Self {
        let epoch = store.lock().epoch_handle();
        Self {
            store,
            epoch,
            cache: Arc::new(ResultCache::new()),
            stats: Arc::new(TierStats::default()),
            metrics: Arc::new(ServeMetrics::new()),
        }
    }

    /// This tier's cache (tests and the coherence oracle).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// This tier's local statistics.
    pub fn stats(&self) -> &TierStats {
        &self.stats
    }

    /// Handles one parsed request (pure; unit-testable without sockets).
    pub fn respond(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (req.path.as_str(), None),
        };
        // Fixed route set keeps metric label cardinality bounded.
        let route = match path {
            "/api/windows" => "windows",
            "/api/cdf" => "cdf",
            "/api/heatmap" => "heatmap",
            "/api/sla" => "sla",
            "/metrics" => "metrics",
            _ => "other",
        };
        let resp = if path == "/metrics" {
            let body =
                pingmesh_obs::encode::snapshot_to_prometheus(&pingmesh_obs::registry().snapshot());
            let mut resp = Response::ok(body.into_bytes());
            resp.headers
                .push(("content-type".into(), "text/plain; version=0.0.4".into()));
            resp
        } else {
            match ApiQuery::parse(path, query) {
                Ok(q) => self.respond_query(&q, req),
                Err(QueryError::NotFound) => Response::not_found(),
                Err(QueryError::Bad(msg)) => Response::bad_request(msg),
            }
        };
        let (_, requests, latency) = self.metrics.route(route);
        requests.inc();
        latency.record_micros(t0.elapsed().as_micros() as u64);
        resp
    }

    fn respond_query(&self, q: &ApiQuery, req: &Request) -> Response {
        let Some((from, to)) = q.range() else {
            // Hot store status: live state, never cached, no validators.
            // The lock covers copying five integers, not serializing them.
            let status = views::StoreStatus::read(&self.store.lock());
            let mut resp = match status.render() {
                Ok(body) => Response::ok(body),
                Err(msg) => return Response::internal_error(msg),
            };
            resp.headers
                .push(("content-type".into(), "application/json".into()));
            return resp;
        };
        let entry = match self.ensure(q, from, to) {
            Ok(entry) => entry,
            Err(msg) => return Response::internal_error(msg),
        };
        if req.header("if-none-match") == Some(entry.etag.as_str()) {
            self.stats.not_modified.fetch_add(1, Ordering::Relaxed);
            self.metrics.not_modified.inc();
            return Response::not_modified(&entry.etag);
        }
        // The cached body is served verbatim — response bytes on a hit
        // are identical to the bytes a fresh rebuild would produce (the
        // coherence oracle proves this), so no hit/miss header here.
        let mut resp = Response::ok((*entry.body).clone());
        resp.headers
            .push(("content-type".into(), "application/json".into()));
        resp.headers.push(("etag".into(), entry.etag));
        resp
    }

    /// Returns the cached entry for `q`, building it if needed. Freshness
    /// ladder: (1) store epoch unchanged → lock-free hit; (2) epoch moved
    /// but the range fingerprint matches → revalidated hit, one O(windows)
    /// check under the lock; (3) fingerprint moved → rebuild (that is the
    /// invalidation on stragglers and late service-map refolds). A
    /// rebuild holds the store lock for the fingerprint and the gather
    /// only; the body is rendered, hashed and cached with it released.
    fn ensure(&self, q: &ApiQuery, from: SimTime, to: SimTime) -> Result<CacheEntry, &'static str> {
        let key = q.cache_key();
        let epoch = self.epoch.load(Ordering::Acquire);
        if let Some(e) = self.cache.get(&key) {
            if e.valid_at_epoch >= epoch {
                self.note_hit(e.frozen);
                return Ok(e);
            }
        }
        let asked = Instant::now();
        let store = self.store.lock();
        let locked = Instant::now();
        self.metrics.store_lock_wait_us.record_wall(locked - asked);
        let version = store.window_version(from, to);
        if let Some(e) = self.cache.get(&key) {
            if e.version == version {
                drop(store);
                self.cache.revalidate(&key, epoch);
                self.stats.revalidated.fetch_add(1, Ordering::Relaxed);
                self.metrics.revalidated.inc();
                self.note_hit(e.frozen);
                return Ok(e);
            }
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            self.metrics.invalidations.inc();
        }
        let agg = q.gather(&store);
        let frozen = store.frozen_before().is_some_and(|fb| to <= fb);
        drop(store);
        let unlocked = Instant::now();
        let body = q.render(&agg)?;
        self.metrics
            .note_rebuild(q.view(), unlocked - locked, unlocked.elapsed());
        let entry = CacheEntry {
            version,
            valid_at_epoch: epoch,
            etag: etag_of(&body),
            frozen,
            body: Arc::new(body),
        };
        self.cache.insert(key, entry.clone());
        if frozen {
            self.stats.misses_frozen.fetch_add(1, Ordering::Relaxed);
            self.metrics.misses_frozen.inc();
        } else {
            self.stats.misses_hot.fetch_add(1, Ordering::Relaxed);
            self.metrics.misses_hot.inc();
        }
        Ok(entry)
    }

    fn note_hit(&self, frozen: bool) {
        if frozen {
            self.stats.hits_frozen.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits_frozen.inc();
        } else {
            self.stats.hits_hot.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits_hot.inc();
        }
    }

    /// Prebuilds the standard dashboard queries (CDF per DC × scope,
    /// both heatmaps, the SLA rollup) for every 10-minute window in
    /// `[from, to)` — the "built once when the window closes" path.
    /// Returns the number of queries ensured.
    pub fn warm(&self, from: SimTime, to: SimTime) -> usize {
        use pingmesh_dsa::agg::LatencyScope;
        use views::HeatmapLevel;
        let dcs = self.store.lock().stream_dcs();
        let mut ensured = 0;
        let mut ws = from;
        while ws < to {
            let we = ws + pingmesh_dsa::store::PARTIAL_WINDOW;
            let mut queries = Vec::new();
            for &dc in &dcs {
                for scope in [
                    LatencyScope::IntraPod,
                    LatencyScope::InterPod,
                    LatencyScope::InterDc,
                ] {
                    queries.push(ApiQuery::Cdf {
                        dc,
                        scope,
                        from: ws,
                        to: we,
                    });
                }
            }
            queries.push(ApiQuery::Heatmap {
                level: HeatmapLevel::Pod,
                from: ws,
                to: we,
            });
            queries.push(ApiQuery::Heatmap {
                level: HeatmapLevel::Podset,
                from: ws,
                to: we,
            });
            queries.push(ApiQuery::Sla { from: ws, to: we });
            for q in queries {
                if self.ensure(&q, ws, we).is_ok() {
                    ensured += 1;
                }
            }
            ws = we;
        }
        ensured
    }
}

/// Runs one serve replica until dropped.
pub async fn serve_query(listener: TcpListener, tier: QueryTier) {
    pingmesh_httpx::serve(listener, move |req| tier.respond(req)).await
}

/// Client-side: one GET over an existing keep-alive [`Conn`], with an
/// optional `If-None-Match` validator. Returns the response.
pub async fn get_with(
    conn: &mut Conn<TcpStream>,
    path: &str,
    etag: Option<&str>,
    deadline: std::time::Duration,
) -> Result<Response, HttpError> {
    let mut req = Request::get(path);
    req.set_keep_alive();
    if let Some(tag) = etag {
        req.headers.push(("if-none-match".into(), tag.to_string()));
    }
    conn.queue_request(&req);
    conn.flush_with(deadline).await?;
    conn.read_response_with(deadline).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_dsa::store::{CosmosStore, StreamName};
    use pingmesh_topology::ServiceMap;
    use pingmesh_types::{
        DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, QosClass, ServerId, SimDuration,
    };

    const W: u64 = 600_000_000;

    fn corpus(windows: u64, per_window: u64) -> Vec<pingmesh_types::ProbeRecord> {
        let mut out = Vec::new();
        for w in 0..windows {
            for i in 0..per_window {
                let n = w * per_window + i;
                out.push(pingmesh_types::ProbeRecord {
                    ts: SimTime(w * W + i * (W / per_window.max(1))),
                    src: ServerId((n % 16) as u32),
                    dst: ServerId(((n + 3) % 16) as u32),
                    src_pod: PodId((n % 8) as u32),
                    dst_pod: PodId(((n + 3) % 8) as u32),
                    src_podset: PodsetId((n % 4) as u32),
                    dst_podset: PodsetId(((n + 1) % 4) as u32),
                    src_dc: DcId(0),
                    dst_dc: DcId(n.is_multiple_of(7) as u32),
                    kind: ProbeKind::TcpSyn,
                    qos: QosClass::High,
                    src_port: 40_000,
                    dst_port: 8_100,
                    outcome: if n.is_multiple_of(13) {
                        ProbeOutcome::Timeout
                    } else {
                        ProbeOutcome::Success {
                            rtt: SimDuration::from_micros(120 + (n * 37) % 900),
                        }
                    },
                });
            }
        }
        out
    }

    fn seeded_store(windows: u64) -> Arc<Mutex<CosmosStore>> {
        let mut store = CosmosStore::new(512, 1);
        let mut services = ServiceMap::new();
        services
            .register("search", (0..8).map(ServerId).collect::<Vec<_>>())
            .unwrap();
        store.set_service_map(Arc::new(services)).unwrap();
        for batch in corpus(windows, 64).chunks(50) {
            let t = batch.iter().map(|r| r.ts).max().unwrap();
            store.append(StreamName { dc: DcId(0) }, batch, t);
        }
        Arc::new(Mutex::new(store))
    }

    fn sla_req(from: u64, to: u64) -> Request {
        Request::get(&format!("/api/sla?from={from}&to={to}"))
    }

    #[test]
    fn cached_frozen_response_is_byte_identical_to_fresh_rebuild() {
        let store = seeded_store(3); // windows 0..2; window 2 is hot
        let tier = QueryTier::new(Arc::clone(&store));
        for path in [
            format!("/api/sla?from=0&to={W}"),
            format!("/api/cdf?dc=0&scope=interpod&from=0&to={W}"),
            format!("/api/heatmap?level=pod&from=0&to={W}"),
            format!("/api/heatmap?level=podset&from=0&to={W}"),
        ] {
            let first = tier.respond(&Request::get(&path));
            assert_eq!(first.status, 200, "{path}");
            let second = tier.respond(&Request::get(&path));
            assert_eq!(second.status, 200);
            assert_eq!(first.body, second.body, "{path}: hit must equal miss");
            // From-scratch rebuild via merged_window_aggregate — every
            // map merged, not just the ones the view gathers — is the
            // golden reference the cache must match bit for bit.
            let (p, q) = path.split_once('?').unwrap();
            let query = ApiQuery::parse(p, Some(q)).unwrap();
            let full = store.lock().merged_window_aggregate(SimTime(0), SimTime(W));
            let fresh = query.render(&full).expect("render");
            assert_eq!(first.body, fresh, "{path}: cached vs rebuilt");
        }
        let s = tier.stats();
        assert!(s.hits_frozen.load(Ordering::Relaxed) >= 4);
        assert_eq!(s.frozen_hit_rate(), 0.5); // 4 misses, 4 hits
    }

    #[test]
    fn adversarial_queries_get_4xx_and_leave_the_tier_serving() {
        let tier = QueryTier::new(seeded_store(2));
        // Largest 10-min-aligned timestamp: a whole-history query must be
        // bounded by store contents, not by the requested span.
        let huge = (u64::MAX / W) * W;
        let bad = [
            format!("/api/cdf?dc=4294967296&scope=interpod&from=0&to={W}"),
            format!("/api/cdf?dc=0&scope=rack&from=0&to={W}"),
            format!("/api/cdf?scope=interpod&from=0&to={W}"),
            format!("/api/heatmap?level=rack&from=0&to={W}"),
            format!("/api/sla?from=999&to={W}"),
            format!("/api/sla?from={W}&to=0"),
            format!("/api/sla?from=-{W}&to={W}"),
            format!("/api/sla?from=0x10&to={W}"),
            "/api/sla?from=&to=".to_string(),
            "/api/sla".to_string(),
            format!("/api/sla?from=18446744073709551615&to={huge}"),
        ];
        for path in &bad {
            let resp = tier.respond(&Request::get(path));
            assert_eq!(resp.status, 400, "{path} must be a 400, not a panic");
        }
        assert_eq!(tier.respond(&Request::get("/api/zzz")).status, 404);
        // Whole-history and empty ranges answer 200 from existing
        // partials only (the aggregate walks a BTreeMap range, so a
        // huge span cannot stall the tier).
        for path in [
            format!("/api/sla?from=0&to={huge}"),
            "/api/sla?from=0&to=0".to_string(),
            format!("/api/heatmap?level=pod&from=0&to={huge}"),
        ] {
            let resp = tier.respond(&Request::get(&path));
            assert_eq!(resp.status, 200, "{path}");
        }
        // The tier still serves a normal dashboard query after the abuse.
        let ok = tier.respond(&sla_req(0, W));
        assert_eq!(ok.status, 200);
        assert!(!ok.body.is_empty());
    }

    #[test]
    fn etag_roundtrip_200_304_then_invalidation_on_refold() {
        let store = seeded_store(2);
        let tier = QueryTier::new(Arc::clone(&store));
        let first = tier.respond(&sla_req(0, W));
        assert_eq!(first.status, 200);
        let etag = first.header("etag").expect("etag on 200").to_string();

        let mut conditional = sla_req(0, W);
        conditional
            .headers
            .push(("if-none-match".into(), etag.clone()));
        let second = tier.respond(&conditional);
        assert_eq!(second.status, 304, "matching validator → 304");
        assert!(second.body.is_empty());
        assert_eq!(second.header("etag"), Some(etag.as_str()));
        assert_eq!(tier.stats().not_modified.load(Ordering::Relaxed), 1);

        // Late service-map refold: every partial rebuilds, the frozen
        // window's fingerprint moves, and the stale validator must now
        // miss (fresh 200 with a different body and etag: the new map
        // adds per-service rows).
        let mut services = ServiceMap::new();
        services
            .register("web", (0..16).map(ServerId).collect::<Vec<_>>())
            .unwrap();
        store.lock().set_service_map(Arc::new(services)).unwrap();
        let third = tier.respond(&conditional);
        assert_eq!(third.status, 200, "refold must invalidate the 304");
        let new_etag = third.header("etag").expect("etag").to_string();
        assert_ne!(new_etag, etag, "body changed, etag must change");
        assert!(tier.stats().invalidations.load(Ordering::Relaxed) >= 1);
        // And the rebuilt entry still matches a fresh build.
        let fresh = ApiQuery::Sla {
            from: SimTime(0),
            to: SimTime(W),
        }
        .build(&store.lock())
        .expect("build");
        assert_eq!(third.body, fresh);
    }

    #[test]
    fn restart_coherence_recovered_store_forces_revalidation() {
        // A tier must never trust pre-crash cache entries against a
        // recovered store. Recovery raises the shared epoch handle and
        // salts every window fingerprint with the boot id, so both
        // freshness-ladder shortcuts (epoch unchanged; fingerprint
        // unchanged) miss and the entry rebuilds from recovered state.
        let dir = pingmesh_dsa::unique_dir("serve-restart");
        let _guard = pingmesh_dsa::DirGuard::new(dir.clone());
        fn install_services(store: &mut CosmosStore) {
            let mut services = ServiceMap::new();
            services
                .register("search", (0..8).map(ServerId).collect::<Vec<_>>())
                .unwrap();
            store.set_service_map(Arc::new(services)).unwrap();
        }
        let mut durable = CosmosStore::durable(&dir, 512, 1).unwrap();
        install_services(&mut durable);
        for batch in corpus(3, 64).chunks(50) {
            let t = batch.iter().map(|r| r.ts).max().unwrap();
            durable.append(StreamName { dc: DcId(0) }, batch, t);
        }
        let store = Arc::new(Mutex::new(durable));
        let tier = QueryTier::new(Arc::clone(&store));
        let first = tier.respond(&sla_req(0, W));
        assert_eq!(first.status, 200);
        let etag = first.header("etag").unwrap().to_string();
        let version_before = store.lock().window_version(SimTime(0), SimTime(W));

        // Crash: rebuild the store from disk alone, adopting the epoch
        // handle the tier already holds — exactly what a restarted
        // collector does for a long-lived read tier.
        {
            let mut guard = store.lock();
            let epoch = guard.epoch_handle();
            *guard = CosmosStore::recover_with(&dir, 512, 1, Some(epoch)).unwrap();
            // The service map is config, not data; a restarted process
            // reinstalls it from its own startup path.
            install_services(&mut guard);
        }
        let version_after = store.lock().window_version(SimTime(0), SimTime(W));
        assert_ne!(
            version_before, version_after,
            "boot id must salt every fingerprint across a restart"
        );

        // A stale validator must be revalidated against the recovered
        // store, never answered from the pre-crash cache entry.
        let mut conditional = sla_req(0, W);
        conditional
            .headers
            .push(("if-none-match".into(), etag.clone()));
        let resp = tier.respond(&conditional);
        assert!(
            tier.stats().invalidations.load(Ordering::Relaxed) >= 1,
            "pre-crash entry must be rebuilt, not trusted"
        );
        // WAL-first ingest makes the recovered window bit-identical, so
        // the rebuilt body hashes to the same validator: this 304 is
        // proven fresh against recovered bytes, not assumed.
        assert_eq!(resp.status, 304);
        let fresh = ApiQuery::Sla {
            from: SimTime(0),
            to: SimTime(W),
        }
        .build(&store.lock())
        .expect("build");
        let rebuilt = tier.respond(&sla_req(0, W));
        assert_eq!(rebuilt.status, 200);
        assert_eq!(
            rebuilt.body, fresh,
            "served bytes equal a pure rebuild of the recovered store"
        );
        assert_eq!(
            etag_of(&fresh),
            etag,
            "identical bytes, identical validator"
        );
    }

    #[test]
    fn hot_window_queries_bypass_the_cache() {
        let store = seeded_store(2);
        let tier = QueryTier::new(Arc::clone(&store));
        let resp = tier.respond(&Request::get("/api/windows"));
        assert_eq!(resp.status, 200);
        assert!(
            resp.header("etag").is_none(),
            "live status has no validator"
        );
        assert!(tier.cache().is_empty(), "windows is never cached");
        // A query over the still-hot window caches but counts as hot.
        let hot = tier.respond(&sla_req(W, 2 * W));
        assert_eq!(hot.status, 200);
        assert_eq!(tier.stats().misses_hot.load(Ordering::Relaxed), 1);
        // Appending into the hot window invalidates it on next read.
        let rec = corpus(2, 1).pop().unwrap();
        let mut r = rec;
        r.ts = SimTime(W + 5);
        store
            .lock()
            .append(StreamName { dc: DcId(0) }, &[r], SimTime(W + 5));
        let again = tier.respond(&sla_req(W, 2 * W));
        assert_eq!(again.status, 200);
        assert!(tier.stats().invalidations.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn each_freshness_rung_is_counted_and_rungs_sum_to_cacheable_requests() {
        let store = seeded_store(3); // windows 0..1 frozen, window 2 hot
        let tier = QueryTier::new(Arc::clone(&store));
        let s = tier.stats();
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let rungs = || {
            let hits = get(&s.hits_frozen) + get(&s.hits_hot);
            let rebuilt = get(&s.misses_frozen) + get(&s.misses_hot);
            (hits - get(&s.revalidated), get(&s.revalidated), rebuilt)
        };
        let append_into_hot_window = || {
            let mut r = corpus(1, 1).pop().unwrap();
            r.ts = SimTime(2 * W + 7);
            store.lock().append(StreamName { dc: DcId(0) }, &[r], r.ts);
        };

        // Rung 3: nothing cached, the body is built.
        assert_eq!(tier.respond(&sla_req(0, W)).status, 200);
        assert_eq!(rungs(), (0, 0, 1));
        // Rung 1: the store has not moved, no lock taken.
        assert_eq!(tier.respond(&sla_req(0, W)).status, 200);
        assert_eq!(rungs(), (1, 0, 1));
        // Rung 2: the epoch moved, but in another window — the range's
        // fingerprint still matches, so the entry revalidates.
        append_into_hot_window();
        assert_eq!(tier.respond(&sla_req(0, W)).status, 200);
        assert_eq!(rungs(), (1, 1, 1));
        assert_eq!(get(&s.invalidations), 0);
        // …and is then good for rung 1 again at the new epoch.
        assert_eq!(tier.respond(&sla_req(0, W)).status, 200);
        assert_eq!(rungs(), (2, 1, 1));
        // Rung 3 by invalidation: the hot window's own fingerprint moves.
        assert_eq!(tier.respond(&sla_req(2 * W, 3 * W)).status, 200);
        append_into_hot_window();
        assert_eq!(tier.respond(&sla_req(2 * W, 3 * W)).status, 200);
        assert_eq!(rungs(), (2, 1, 3));
        assert_eq!(get(&s.invalidations), 1);

        // Uncached and rejected requests stand on no rung.
        assert_eq!(tier.respond(&Request::get("/api/windows")).status, 200);
        assert_eq!(tier.respond(&sla_req(1, W)).status, 400);
        let (epoch, revalidated, rebuilt) = rungs();
        assert_eq!(
            epoch + revalidated + rebuilt,
            6,
            "one rung per cacheable request"
        );
    }

    #[test]
    fn bad_queries_are_400_unknown_routes_404() {
        let tier = QueryTier::new(seeded_store(1));
        assert_eq!(tier.respond(&sla_req(1, W)).status, 400, "misaligned");
        assert_eq!(
            tier.respond(&Request::get(
                "/api/cdf?dc=0&scope=warp&from=0&to=600000000"
            ))
            .status,
            400
        );
        assert_eq!(tier.respond(&Request::get("/api/nope")).status, 404);
        assert_eq!(tier.respond(&Request::get("/upload")).status, 404);
    }

    #[test]
    fn warm_prebuilds_the_standard_dashboard() {
        let store = seeded_store(3);
        let tier = QueryTier::new(Arc::clone(&store));
        let built = tier.warm(SimTime(0), SimTime(2 * W));
        // 1 DC × 3 scopes + 2 heatmaps + 1 sla = 6 per window, 2 windows.
        assert_eq!(built, 12);
        assert_eq!(tier.cache().len(), 12);
        // Warmed queries now hit without ever missing again: a seeded
        // pass over the twelve warmed keys builds nothing.
        let paths: Vec<String> = [(0, W), (W, 2 * W)]
            .into_iter()
            .flat_map(|(from, to)| {
                [
                    "sla?",
                    "heatmap?level=pod&",
                    "heatmap?level=podset&",
                    "cdf?dc=0&scope=intrapod&",
                    "cdf?dc=0&scope=interpod&",
                    "cdf?dc=0&scope=interdc&",
                ]
                .map(|q| format!("/api/{q}from={from}&to={to}"))
            })
            .collect();
        const PASS: u64 = 2_000;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..PASS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let path = &paths[(state % paths.len() as u64) as usize];
            assert_eq!(tier.respond(&Request::get(path)).status, 200, "{path}");
        }
        // The only frozen misses of the tier's life are `warm`'s own twelve
        // builds — the ≥ 99 % frozen hit rate the dashboard relies on.
        let stats = tier.stats();
        assert_eq!(stats.misses_frozen.load(Ordering::Relaxed), 12);
        assert_eq!(stats.hits_frozen.load(Ordering::Relaxed), PASS);
        assert_eq!(tier.cache().len(), 12);
        assert!(stats.frozen_hit_rate() >= 0.99);
    }

    #[tokio::test]
    async fn keep_alive_serving_over_real_sockets_with_304s() {
        let store = seeded_store(2);
        let tier = QueryTier::new(Arc::clone(&store));
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(serve_query(listener, tier));

        let stream = TcpStream::connect(addr).await.unwrap();
        let mut conn = Conn::new(stream);
        let deadline = std::time::Duration::from_secs(10);
        let path = format!("/api/sla?from=0&to={W}");
        let first = get_with(&mut conn, &path, None, deadline).await.unwrap();
        assert_eq!(first.status, 200);
        let etag = first.header("etag").unwrap().to_string();
        // Same connection, conditional: 304 without re-sending the body.
        let second = get_with(&mut conn, &path, Some(&etag), deadline)
            .await
            .unwrap();
        assert_eq!(second.status, 304);
        assert!(second.body.is_empty());
        // Still the same connection: a different query round-trips.
        let third = get_with(&mut conn, "/api/windows", None, deadline)
            .await
            .unwrap();
        assert_eq!(third.status, 200);
        server.abort();
    }
}
