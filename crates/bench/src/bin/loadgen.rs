//! Closed-loop load generator for the query/serving tier.
//!
//! Seeds a [`CosmosStore`] with a multi-hour probe corpus, starts N
//! serve replicas (shared store, private per-replica result caches) on
//! real TCP sockets, and drives a mixed dashboard workload over
//! keep-alive connections: historical per-window SLA rollups, latency
//! CDFs, pod×pod / podset×podset heatmaps, hourly rollups, live
//! `/api/windows` status polls, and hot-window SLA queries racing a
//! background appender. Workers remember `ETag`s and replay them as
//! `If-None-Match`, so the steady state is the dashboard-poll pattern:
//! mostly 304s and cache hits.
//!
//! Each worker is **closed-loop with pipelined batches**: it queues a
//! batch of requests on its connection, flushes once, then reads every
//! response before issuing the next batch. Per-request latency is
//! accounted as the full batch round-trip (a conservative upper bound).
//!
//! The run sweeps replica/connection points to map req/s against p99,
//! then holds the widest point as the sustained measurement. Results
//! land in `BENCH_serve.json` (`--smoke`: `target/BENCH_serve.smoke.json`).
//!
//! `--check` gates:
//! * every sampled response is byte-identical to a from-scratch
//!   [`ApiQuery::build`] over the quiesced store (cache coherence);
//! * historical (frozen-window) cache hit rate ≥ 99%;
//! * the sustained point meets the mode's req/s floor and p99 SLO
//!   (full: ≥ 100k req/s, p99 ≤ 50 ms; smoke: ≥ 5k req/s, p99 ≤ 400 ms).
//!
//! Usage: `cargo run --release -p pingmesh-bench --bin loadgen
//! [--smoke] [--check] [--out PATH]`.

use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_httpx::{Conn, Request};
use pingmesh_serve::views::ApiQuery;
use pingmesh_serve::{serve_query, QueryTier};
use pingmesh_topology::ServiceMap;
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::{TcpListener, TcpStream};

const W: u64 = 600_000_000; // one 10-min partial window, µs
const WINDOWS: u64 = 12; // corpus spans 2 hours; window 11 stays hot
const HOT_WINDOW: u64 = WINDOWS - 1;
const RECORDS_PER_WINDOW: u64 = 1_000;
const IO_DEADLINE: Duration = Duration::from_secs(10);

struct Args {
    smoke: bool,
    check: bool,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        check: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--out" => args.out = it.next(),
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// Deterministic xorshift64*; the workload must not depend on ambient
/// entropy so two runs of the same mode drive the same query stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn record(n: u64, ts: SimTime) -> ProbeRecord {
    ProbeRecord {
        ts,
        src: ServerId((n % 16) as u32),
        dst: ServerId(((n + 5) % 16) as u32),
        src_pod: PodId((n % 8) as u32),
        dst_pod: PodId(((n + 3) % 8) as u32),
        src_podset: PodsetId((n % 4) as u32),
        dst_podset: PodsetId(((n + 1) % 4) as u32),
        src_dc: DcId(0),
        dst_dc: DcId(n.is_multiple_of(11) as u32),
        kind: ProbeKind::TcpSyn,
        qos: QosClass::High,
        src_port: 40_000,
        dst_port: 8_100,
        outcome: if n.is_multiple_of(17) {
            ProbeOutcome::Timeout
        } else {
            ProbeOutcome::Success {
                rtt: SimDuration::from_micros(120 + (n * 37) % 900),
            }
        },
    }
}

fn seeded_store() -> Arc<parking_lot::Mutex<CosmosStore>> {
    let mut store = CosmosStore::with_defaults();
    let mut services = ServiceMap::new();
    services
        .register("search", (0..8).map(ServerId).collect::<Vec<_>>())
        .expect("service");
    services
        .register("storage", (8..16).map(ServerId).collect::<Vec<_>>())
        .expect("service");
    store.set_service_map(Arc::new(services));
    let mut batch = Vec::with_capacity(500);
    for w in 0..WINDOWS {
        for i in 0..RECORDS_PER_WINDOW {
            let n = w * RECORDS_PER_WINDOW + i;
            batch.push(record(n, SimTime(w * W + i * (W / RECORDS_PER_WINDOW))));
            if batch.len() == 500 {
                let t = batch.iter().map(|r| r.ts).max().unwrap();
                store.append(StreamName { dc: DcId(0) }, &batch, t);
                batch.clear();
            }
        }
    }
    if !batch.is_empty() {
        let t = batch.iter().map(|r| r.ts).max().unwrap();
        store.append(StreamName { dc: DcId(0) }, &batch, t);
    }
    Arc::new(parking_lot::Mutex::new(store))
}

/// The query universe: every path the workers draw from. Paths reuse the
/// canonical cache-key format, so each maps to exactly one cache entry.
struct Workload {
    /// Frozen single-window queries (sla / cdf / heatmap per window).
    historical: Vec<String>,
    /// The hourly SLA rollup over windows 0..6.
    rollup: String,
    /// SLA over the still-open window (invalidated by the appender).
    hot: String,
    /// Live store status (never cached).
    windows: String,
}

impl Workload {
    fn new() -> Self {
        let mut historical = Vec::new();
        for k in 0..HOT_WINDOW {
            let (from, to) = (k * W, (k + 1) * W);
            historical.push(format!("/api/sla?from={from}&to={to}"));
            historical.push(format!("/api/heatmap?level=pod&from={from}&to={to}"));
            historical.push(format!("/api/heatmap?level=podset&from={from}&to={to}"));
            for scope in ["intrapod", "interpod", "interdc"] {
                historical.push(format!("/api/cdf?dc=0&scope={scope}&from={from}&to={to}"));
            }
        }
        Workload {
            historical,
            rollup: format!("/api/sla?from=0&to={}", 6 * W),
            hot: format!("/api/sla?from={}&to={}", HOT_WINDOW * W, WINDOWS * W),
            windows: "/api/windows".to_string(),
        }
    }

    /// Mix: 70% historical dashboards, 10% hourly rollups, 10% live
    /// status polls, 10% hot-window queries.
    fn pick<'a>(&'a self, rng: &mut Rng) -> &'a str {
        match rng.next() % 100 {
            0..=69 => {
                let i = (rng.next() as usize) % self.historical.len();
                &self.historical[i]
            }
            70..=79 => &self.rollup,
            80..=89 => &self.windows,
            _ => &self.hot,
        }
    }
}

#[derive(Default)]
struct WorkerOut {
    /// (batch round-trip µs, responses in batch), measured batches only.
    samples: Vec<(u64, u32)>,
    n200: u64,
    n304: u64,
    errors: u64,
}

async fn worker(
    addr: SocketAddr,
    seed: u64,
    batch: usize,
    workload: Arc<Workload>,
    measuring: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut rng = Rng(seed | 1);
    let mut etags: HashMap<String, String> = HashMap::new();
    let mut conn = match TcpStream::connect(addr).await {
        Ok(s) => Conn::new(s),
        Err(_) => {
            out.errors += 1;
            return out;
        }
    };
    let mut inflight: Vec<&str> = Vec::with_capacity(batch);
    while !stop.load(Ordering::Relaxed) {
        inflight.clear();
        let t0 = Instant::now();
        for _ in 0..batch {
            let path = workload.pick(&mut rng);
            let mut req = Request::get(path);
            req.set_keep_alive();
            // Dashboard polls replay the validator they last saw ~80% of
            // the time; the rest re-fetch the full body.
            if rng.next() % 10 < 8 {
                if let Some(tag) = etags.get(path) {
                    req.headers.push(("if-none-match".into(), tag.clone()));
                }
            }
            conn.queue_request(&req);
            inflight.push(path);
        }
        let mut failed = false;
        if conn.flush_with(IO_DEADLINE).await.is_err() {
            failed = true;
        } else {
            for path in &inflight {
                match conn.read_response_with(IO_DEADLINE).await {
                    Ok(resp) => match resp.status {
                        200 => {
                            out.n200 += 1;
                            if let Some(tag) = resp.header("etag") {
                                etags.insert((*path).to_string(), tag.to_string());
                            }
                        }
                        304 => out.n304 += 1,
                        _ => out.errors += 1,
                    },
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            out.errors += 1;
            match TcpStream::connect(addr).await {
                Ok(s) => conn = Conn::new(s),
                Err(_) => break,
            }
            continue;
        }
        if measuring.load(Ordering::Relaxed) {
            out.samples
                .push((t0.elapsed().as_micros() as u64, batch as u32));
        }
    }
    out
}

struct PointResult {
    replicas: usize,
    conns: usize,
    batch: usize,
    req_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    n200: u64,
    n304: u64,
    errors: u64,
}

/// Weighted percentile over (batch_rtt_us, responses) samples: every
/// response in a batch experienced (at most) the batch's round-trip.
fn percentile_ms(samples: &mut [(u64, u32)], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by_key(|s| s.0);
    let total: u64 = samples.iter().map(|s| u64::from(s.1)).sum();
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (us, n) in samples.iter() {
        seen += u64::from(*n);
        if seen >= rank {
            return *us as f64 / 1_000.0;
        }
    }
    samples[samples.len() - 1].0 as f64 / 1_000.0
}

#[allow(clippy::too_many_arguments)]
async fn run_point(
    addrs: &[SocketAddr],
    replicas: usize,
    conns: usize,
    batch: usize,
    warmup: Duration,
    measure: Duration,
    workload: &Arc<Workload>,
    seed_base: u64,
) -> PointResult {
    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(conns);
    for c in 0..conns {
        handles.push(tokio::spawn(worker(
            addrs[c % replicas],
            seed_base.wrapping_add(c as u64).wrapping_mul(0x9E37_79B9),
            batch,
            Arc::clone(workload),
            Arc::clone(&measuring),
            Arc::clone(&stop),
        )));
    }
    tokio::time::sleep(warmup).await;
    measuring.store(true, Ordering::Relaxed);
    let t0 = Instant::now();
    tokio::time::sleep(measure).await;
    measuring.store(false, Ordering::Relaxed);
    let measured = t0.elapsed();
    stop.store(true, Ordering::Relaxed);

    let mut samples = Vec::new();
    let (mut n200, mut n304, mut errors) = (0u64, 0u64, 0u64);
    for h in handles {
        let o = h.await.expect("worker completes");
        samples.extend(o.samples);
        n200 += o.n200;
        n304 += o.n304;
        errors += o.errors;
    }
    let responses: u64 = samples.iter().map(|s| u64::from(s.1)).sum();
    let req_s = responses as f64 / measured.as_secs_f64();
    let p50_ms = percentile_ms(&mut samples, 0.50);
    let p99_ms = percentile_ms(&mut samples, 0.99);
    PointResult {
        replicas,
        conns,
        batch,
        req_s,
        p50_ms,
        p99_ms,
        n200,
        n304,
        errors,
    }
}

/// Background writer keeping the hot window hot: appends a trickle of
/// fresh records so hot-window cache entries keep invalidating and every
/// frozen entry has to re-prove freshness through the fingerprint path.
async fn hot_appender(store: Arc<parking_lot::Mutex<CosmosStore>>, stop: Arc<AtomicBool>) -> u64 {
    let mut n = WINDOWS * RECORDS_PER_WINDOW;
    let mut appended = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let batch: Vec<ProbeRecord> = (0..20)
            .map(|i| {
                let k = n + i;
                // Timestamps stay inside the hot window so the frozen
                // horizon never moves mid-run.
                record(k, SimTime(HOT_WINDOW * W + (k * 977) % (W - 1)))
            })
            .collect();
        n += batch.len() as u64;
        appended += batch.len() as u64;
        let t = batch.iter().map(|r| r.ts).max().unwrap();
        store.lock().append(StreamName { dc: DcId(0) }, &batch, t);
        tokio::time::sleep(Duration::from_millis(250)).await;
    }
    appended
}

/// Re-fetches every cacheable path once (no validator) and compares the
/// served bytes against a pure from-scratch [`ApiQuery::build`] over the
/// quiesced store. Returns (checked, mismatches).
async fn byte_identity_check(
    addr: SocketAddr,
    store: &Arc<parking_lot::Mutex<CosmosStore>>,
    workload: &Workload,
) -> (u64, u64) {
    let stream = TcpStream::connect(addr).await.expect("connect for check");
    let mut conn = Conn::new(stream);
    let (mut checked, mut mismatches) = (0u64, 0u64);
    let mut paths: Vec<&str> = workload.historical.iter().map(String::as_str).collect();
    paths.push(&workload.rollup);
    paths.push(&workload.hot);
    for path in paths {
        let mut req = Request::get(path);
        req.set_keep_alive();
        conn.queue_request(&req);
        conn.flush_with(IO_DEADLINE).await.expect("flush check");
        let resp = conn
            .read_response_with(IO_DEADLINE)
            .await
            .expect("read check");
        let (p, q) = path.split_once('?').expect("cacheable paths have queries");
        let query = ApiQuery::parse(p, Some(q)).expect("workload paths parse");
        // The reference merges every map of the range, not only the
        // ones the tier gathers for this view, and renders the same way.
        let (from, to) = query.range().expect("cacheable paths have ranges");
        let full = store.lock().merged_window_aggregate(from, to);
        let oracle = query.render(&full).expect("oracle rebuild");
        checked += 1;
        if resp.status != 200 || resp.body != oracle {
            mismatches += 1;
            eprintln!(
                "  MISMATCH {path}: status {}, {} served vs {} rebuilt bytes",
                resp.status,
                resp.body.len(),
                oracle.len()
            );
        }
    }
    (checked, mismatches)
}

fn main() {
    let args = parse_args();
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async_main(args));
}

async fn async_main(args: Args) {
    println!(
        "loadgen: serve-tier closed-loop load generator ({} mode)",
        if args.smoke { "smoke" } else { "full" }
    );

    let store = seeded_store();
    {
        let s = store.lock();
        println!(
            "  corpus: {} records across {WINDOWS} windows, frozen before {} µs",
            s.record_count(),
            s.frozen_before().map_or(0, |t| t.as_micros())
        );
    }

    // Start the replica fleet: shared store, private caches, prewarmed
    // over the frozen horizon (the "build once when the window closes"
    // path — the load phase should start from a hot cache).
    let replicas_max = if args.smoke { 2 } else { 4 };
    let mut addrs = Vec::new();
    let mut tiers = Vec::new();
    for _ in 0..replicas_max {
        let tier = QueryTier::new(Arc::clone(&store));
        let built = tier.warm(SimTime(0), SimTime(HOT_WINDOW * W));
        let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
        addrs.push(listener.local_addr().expect("addr"));
        tokio::spawn(serve_query(listener, tier.clone()));
        tiers.push(tier);
        if addrs.len() == 1 {
            println!("  warm: {built} standard queries prebuilt per replica");
        }
    }

    let workload = Arc::new(Workload::new());
    println!(
        "  workload: {} historical keys + rollup + hot + windows",
        workload.historical.len()
    );

    let stop_appender = Arc::new(AtomicBool::new(false));
    let appender = tokio::spawn(hot_appender(Arc::clone(&store), Arc::clone(&stop_appender)));

    // Sweep replica/connection points, last point = sustained.
    let batch = if args.smoke { 32 } else { 64 };
    let points_spec: &[(usize, usize)] = if args.smoke {
        &[(1, 2), (2, 6)]
    } else {
        &[(1, 4), (2, 8), (4, 16), (4, 24)]
    };
    let (warmup, measure, sustain) = if args.smoke {
        (
            Duration::from_millis(300),
            Duration::from_millis(1_000),
            Duration::from_millis(2_000),
        )
    } else {
        (
            Duration::from_millis(1_000),
            Duration::from_millis(4_000),
            Duration::from_millis(8_000),
        )
    };

    let mut points = Vec::new();
    for (i, &(replicas, conns)) in points_spec.iter().enumerate() {
        let last = i == points_spec.len() - 1;
        let dur = if last { sustain } else { measure };
        let p = run_point(
            &addrs,
            replicas,
            conns,
            batch,
            warmup,
            dur,
            &workload,
            0xC0FF_EE00 + i as u64,
        )
        .await;
        println!(
            "  point: {} replicas × {} conns (batch {}): {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms, {} × 200, {} × 304, {} errors",
            p.replicas, p.conns, p.batch, p.req_s, p.p50_ms, p.p99_ms, p.n200, p.n304, p.errors
        );
        points.push(p);
    }
    let sustained = points.last().expect("at least one point");

    // Quiesce the writer, then prove coherence and collect cache stats.
    stop_appender.store(true, Ordering::Relaxed);
    let appended = appender.await.expect("appender completes");
    let (checked, mismatches) = byte_identity_check(addrs[0], &store, &workload).await;
    println!("  byte-identity: {checked} queries checked, {mismatches} mismatches (appender wrote {appended} hot records)");

    let (mut hits_f, mut miss_f, mut hits_h, mut miss_h, mut inval, mut notmod, mut entries) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for tier in &tiers {
        let s = tier.stats();
        hits_f += s.hits_frozen.load(Ordering::Relaxed);
        miss_f += s.misses_frozen.load(Ordering::Relaxed);
        hits_h += s.hits_hot.load(Ordering::Relaxed);
        miss_h += s.misses_hot.load(Ordering::Relaxed);
        inval += s.invalidations.load(Ordering::Relaxed);
        notmod += s.not_modified.load(Ordering::Relaxed);
        entries += tier.cache().len() as u64;
    }
    let frozen_hit_rate = if hits_f + miss_f == 0 {
        1.0
    } else {
        hits_f as f64 / (hits_f + miss_f) as f64
    };
    let total_resp: u64 = points.iter().map(|p| p.n200 + p.n304).sum();
    let ratio_304 = if total_resp == 0 {
        0.0
    } else {
        points.iter().map(|p| p.n304).sum::<u64>() as f64 / total_resp as f64
    };
    println!(
        "  cache: frozen hit rate {:.4} ({hits_f} hits / {miss_f} misses), hot {hits_h}/{miss_h}, {inval} invalidations, {notmod} × 304, {entries} entries",
        frozen_hit_rate
    );

    // --- write the result file.
    let out_path = args.out.clone().unwrap_or_else(|| {
        if args.smoke {
            "target/BENCH_serve.smoke.json".to_string()
        } else {
            "BENCH_serve.json".to_string()
        }
    });
    let points_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"replicas\": {}, \"conns\": {}, \"batch\": {}, ",
                    "\"req_s\": {:.0}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, ",
                    "\"n200\": {}, \"n304\": {}, \"errors\": {}}}"
                ),
                p.replicas, p.conns, p.batch, p.req_s, p.p50_ms, p.p99_ms, p.n200, p.n304, p.errors
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"pingmesh-bench-serve/1\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"corpus\": {{\"windows\": {windows}, \"records\": {records}, \"hot_appends\": {appended}}},\n",
            "  \"workload\": {{\"historical_keys\": {keys}, \"mix\": \"70% historical / 10% rollup / 10% status / 10% hot\", \"etag_replay\": 0.8}},\n",
            "  \"points\": [\n{points}\n  ],\n",
            "  \"sustained\": {{\"replicas\": {sr}, \"conns\": {sc}, \"req_s\": {sreq:.0}, \"p50_ms\": {sp50:.3}, \"p99_ms\": {sp99:.3}}},\n",
            "  \"cache\": {{\n",
            "    \"frozen_hit_rate\": {fhr:.6},\n",
            "    \"hits_frozen\": {hf}, \"misses_frozen\": {mf},\n",
            "    \"hits_hot\": {hh}, \"misses_hot\": {mh},\n",
            "    \"invalidations\": {inval}, \"not_modified\": {notmod}, \"entries\": {entries},\n",
            "    \"ratio_304\": {r304:.4}\n",
            "  }},\n",
            "  \"byte_identity\": {{\"checked\": {checked}, \"mismatches\": {mismatches}}}\n",
            "}}\n"
        ),
        smoke = args.smoke,
        windows = WINDOWS,
        records = WINDOWS * RECORDS_PER_WINDOW,
        appended = appended,
        keys = workload.historical.len(),
        points = points_json.join(",\n"),
        sr = sustained.replicas,
        sc = sustained.conns,
        sreq = sustained.req_s,
        sp50 = sustained.p50_ms,
        sp99 = sustained.p99_ms,
        fhr = frozen_hit_rate,
        hf = hits_f,
        mf = miss_f,
        hh = hits_h,
        mh = miss_h,
        inval = inval,
        notmod = notmod,
        entries = entries,
        r304 = ratio_304,
        checked = checked,
        mismatches = mismatches,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write results");
    println!("  results written to {out_path}");

    // --- acceptance gates.
    if args.check {
        let (req_floor, p99_slo_ms) = if args.smoke {
            (5_000.0, 400.0)
        } else {
            (100_000.0, 50.0)
        };
        let mut ok = true;
        let mut gate = |name: &str, pass: bool| {
            println!("  [{}] {name}", if pass { "ok" } else { "FAIL" });
            ok &= pass;
        };
        gate(
            "cached responses byte-identical to from-scratch rebuilds",
            mismatches == 0 && checked > 0,
        );
        gate(
            &format!("historical cache hit rate ≥ 99% (got {frozen_hit_rate:.4})"),
            frozen_hit_rate >= 0.99,
        );
        gate(
            &format!(
                "sustained ≥ {req_floor:.0} req/s (got {:.0})",
                sustained.req_s
            ),
            sustained.req_s >= req_floor,
        );
        gate(
            &format!(
                "sustained p99 ≤ {p99_slo_ms:.0} ms (got {:.2})",
                sustained.p99_ms
            ),
            sustained.p99_ms <= p99_slo_ms,
        );
        gate("no transport errors", points.iter().all(|p| p.errors == 0));
        if !ok {
            std::process::exit(1);
        }
    }
}
