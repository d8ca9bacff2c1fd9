//! Layer timings shared by more than one workload. Every function here
//! calls a layer's public entry points from outside, on inputs the
//! workload produced, and records a span around each timed block.

use crate::gen::Keys;
use crate::report::RunResult;
use crate::span::Tracer;
use crate::{ns_per_call, stats};
use parking_lot::Mutex;
use pingmesh_dsa::store::{CosmosStore, StreamName, PARTIAL_WINDOW};
use pingmesh_httpx::{parse_request_head, parse_response_head, Conn, Request, Response};
use pingmesh_serve::views::ApiQuery;
use pingmesh_serve::QueryTier;
use pingmesh_types::{ProbeRecord, SimTime};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The collector's group-commit policy (`realmode::collector`): fsync
/// once this many acknowledged bytes sit unsynced.
pub const GROUP_COMMIT_BYTES: u64 = 4 * 1024 * 1024;

fn head_of(bytes: &[u8]) -> &[u8] {
    let end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a serialized message has a head")
        + 4;
    &bytes[..end]
}

/// `httpx` codec: the head parsers on captured traffic and `to_bytes` on
/// a captured response.
pub fn httpx_codec(res: &mut RunResult, tracer: &mut Tracer, request: &[u8], response: &Response) {
    const ITERS: u64 = 200_000;
    let req_head = head_of(request).to_vec();
    let resp_bytes = response.to_bytes();
    let resp_head = head_of(&resp_bytes).to_vec();
    let ((), ns) = tracer.time("httpx.parse_request_head", 0, || {
        for _ in 0..ITERS {
            std::hint::black_box(
                parse_request_head(std::hint::black_box(&req_head)).expect("captured head parses"),
            );
        }
    });
    res.set("httpx.parse_request_ns", ns as f64 / ITERS as f64);
    let ((), ns) = tracer.time("httpx.parse_response_head", 0, || {
        for _ in 0..ITERS {
            std::hint::black_box(
                parse_response_head(std::hint::black_box(&resp_head))
                    .expect("captured head parses"),
            );
        }
    });
    res.set("httpx.parse_response_ns", ns as f64 / ITERS as f64);
    let iters = (ITERS / 10)
        .min(50_000_000 / resp_bytes.len().max(1) as u64)
        .max(100);
    let ((), ns) = tracer.time("httpx.response_to_bytes", 0, || {
        for _ in 0..iters {
            std::hint::black_box(std::hint::black_box(response).to_bytes());
        }
    });
    res.set("httpx.response_to_bytes_ns", ns as f64 / iters as f64);
}

/// `httpx` over the socket: connect, then depth-1 keep-alive GETs to a
/// 404 route — the latency floor under every request in this process.
pub fn httpx_socket(res: &mut RunResult, tracer: &mut Tracer, addr: SocketAddr) {
    const CONNECTS: usize = 40;
    const ROUND_TRIPS: usize = 400;
    let deadline = Duration::from_secs(5);
    let id = tracer.enter("httpx.socket_floor", 0);
    let (connect_us, rtt_us) = tokio::runtime::Runtime::new()
        .expect("runtime")
        .block_on(async {
            let mut connects = Vec::with_capacity(CONNECTS);
            let mut last = None;
            for _ in 0..CONNECTS {
                let t0 = Instant::now();
                let s = tokio::net::TcpStream::connect(addr).await.expect("connect");
                connects.push(t0.elapsed().as_secs_f64() * 1e6);
                last = Some(s);
            }
            let mut conn = Conn::new(last.expect("connected"));
            let mut req = Request::get("/no-such-route");
            req.set_keep_alive();
            let mut rtts = Vec::with_capacity(ROUND_TRIPS);
            for _ in 0..ROUND_TRIPS {
                let t0 = Instant::now();
                conn.queue_request(&req);
                conn.flush_with(deadline).await.expect("flush");
                let resp = conn.read_response_with(deadline).await.expect("response");
                assert_eq!(resp.status, 404);
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            (stats::median(&connects), stats::median(&rtts))
        });
    tracer.exit(id);
    res.set_n("httpx.connect_us", connect_us, Some(CONNECTS as u64));
    res.set_n("httpx.loopback_rtt_us", rtt_us, Some(ROUND_TRIPS as u64));
}

/// `dsa` read path: direct calls on the query corpus.
pub fn dsa_reads(res: &mut RunResult, tracer: &mut Tracer, store: &CosmosStore, windows: u64) {
    let w = |i: u64| SimTime(i * PARTIAL_WINDOW.0);
    let last = windows - 1;
    let id = tracer.enter("dsa.merged_window_aggregate", 1);
    let ns1 = ns_per_call(200, |i| {
        store.merged_window_aggregate(w(i % last), w(i % last + 1))
    });
    tracer.exit(id);
    res.set("dsa.merged_window_aggregate_us_1w", ns1 / 1e3);
    let id = tracer.enter("dsa.merged_window_aggregate", 6);
    let ns6 = ns_per_call(40, |i| {
        let from = i % (windows - 6);
        store.merged_window_aggregate(w(from), w(from + 6))
    });
    tracer.exit(id);
    res.set("dsa.merged_window_aggregate_us_6w", ns6 / 1e3);
    let id = tracer.enter("dsa.window_version", 0);
    let nsv = ns_per_call(200_000, |i| {
        store.window_version(w(i % last), w(i % last + 1))
    });
    tracer.exit(id);
    res.set("dsa.window_version_ns", nsv);
}

fn query_of(path: &str) -> ApiQuery {
    let (p, q) = match path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (path, None),
    };
    ApiQuery::parse(p, q).expect("generated paths parse")
}

/// `serve`: `ApiQuery::build` per view over the frozen windows, and
/// `QueryTier::respond` called directly — on a warm key, with its ETag,
/// and after an invalidating append. `fresh` must be a record in the open
/// window; it is appended to the store this function is given.
pub fn serve_direct(
    res: &mut RunResult,
    tracer: &mut Tracer,
    store: &Arc<Mutex<CosmosStore>>,
    keys: &Keys,
    fresh: &[ProbeRecord],
) {
    // --- body builds, one key of each view per frozen window.
    let mut sizes: Vec<f64> = Vec::new();
    {
        let s = store.lock();
        let mut build = |name: &'static str, metric: &'static str, pick: &dyn Fn(&str) -> bool| {
            let paths: Vec<&String> = keys.paths[keys.frozen.clone()]
                .iter()
                .filter(|p| pick(p))
                .collect();
            let queries: Vec<ApiQuery> = paths.iter().map(|p| query_of(p)).collect();
            let id = tracer.enter(name, queries.len() as u64);
            let t0 = Instant::now();
            for q in &queries {
                let body = q.build(&s).expect("build");
                sizes.push(body.len() as f64);
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64;
            tracer.exit(id);
            res.set_n(metric, us, Some(queries.len() as u64));
        };
        build("serve.build.sla", "serve.build_us.sla", &|p| {
            p.starts_with("/api/sla")
        });
        build("serve.build.cdf", "serve.build_us.cdf", &|p| {
            p.starts_with("/api/cdf")
        });
        build(
            "serve.build.heatmap_pod",
            "serve.build_us.heatmap_pod",
            &|p| p.contains("level=pod&"),
        );
        build(
            "serve.build.heatmap_podset",
            "serve.build_us.heatmap_podset",
            &|p| p.contains("level=podset&"),
        );
        let windows_ns = ns_per_call(20_000, |_| ApiQuery::Windows.build(&s).expect("build"));
        res.set("serve.build_us.windows", windows_ns / 1e3);
    }
    sizes.sort_by(|a, b| a.total_cmp(b));
    res.set_n(
        "serve.body_bytes_p50",
        sizes[sizes.len() / 2],
        Some(sizes.len() as u64),
    );
    res.set("serve.body_bytes_max", *sizes.last().expect("some bodies"));

    // --- a tier of its own, so the workload's cache statistics stay its.
    let tier = QueryTier::new(Arc::clone(store));
    let frozen_to = SimTime((keys.frozen.len() as u64 / 9) * PARTIAL_WINDOW.0);
    let (built, ns) = tracer.time("serve.warm", 0, || tier.warm(SimTime::ZERO, frozen_to));
    res.set_n("serve.warm_ms", ns as f64 / 1e6, Some(built as u64));

    let hits: Vec<Request> = keys.paths[keys.frozen.clone()]
        .iter()
        .map(|p| Request::get(p))
        .collect();
    let conds: Vec<Request> = hits
        .iter()
        .map(|r| {
            let tag = tier
                .respond(r)
                .header("etag")
                .expect("cacheable")
                .to_string();
            let mut c = r.clone();
            c.headers.push(("if-none-match".into(), tag));
            c
        })
        .collect();
    let id = tracer.enter("serve.respond.hit", 0);
    let hit_ns = ns_per_call(200_000, |i| {
        tier.respond(&hits[i as usize % hits.len()]).status
    });
    tracer.exit(id);
    res.set("serve.respond_hit_ns", hit_ns);
    let id = tracer.enter("serve.respond.304", 0);
    let nm_ns = ns_per_call(200_000, |i| {
        tier.respond(&conds[i as usize % conds.len()]).status
    });
    tracer.exit(id);
    res.set("serve.respond_304_ns", nm_ns);

    // --- misses: each append into the open window invalidates its keys.
    let open: Vec<Request> = keys.paths[keys.open.clone()]
        .iter()
        .map(|p| Request::get(p))
        .collect();
    for r in &open {
        assert_eq!(tier.respond(r).status, 200);
    }
    let before = tier.stats().misses_hot.load(Ordering::Relaxed);
    let mut miss_us = Vec::new();
    for (round, rec) in fresh.iter().enumerate() {
        let ok = store.lock().append(
            StreamName { dc: rec.src_dc },
            std::slice::from_ref(rec),
            rec.ts,
        );
        assert!(ok);
        let r = &open[round % open.len()];
        let (resp, ns) = tracer.time("serve.respond.miss", round as u64, || tier.respond(r));
        assert_eq!(resp.status, 200);
        miss_us.push(ns as f64 / 1e3);
    }
    let after = tier.stats().misses_hot.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        fresh.len() as u64,
        "every timed respond was a rebuild"
    );
    res.set_n(
        "serve.respond_miss_us",
        stats::median(&miss_us),
        Some(miss_us.len() as u64),
    );
}

/// The cache statistics of the tier the workload drove.
pub fn tier_stats(res: &mut RunResult, tier: &QueryTier, uploads: u64) {
    let s = tier.stats();
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let share = |hit: f64, miss: f64| {
        if hit + miss == 0.0 {
            0.0
        } else {
            hit / (hit + miss)
        }
    };
    res.set(
        "serve.frozen_hit_rate",
        share(get(&s.hits_frozen), get(&s.misses_frozen)),
    );
    res.set(
        "serve.hot_hit_rate",
        share(get(&s.hits_hot), get(&s.misses_hot)),
    );
    res.set(
        "serve.invalidations_per_upload",
        get(&s.invalidations) / uploads.max(1) as f64,
    );
}
