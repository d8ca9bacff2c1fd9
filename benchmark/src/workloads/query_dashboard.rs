//! `query_dashboard`: the read-mostly serve tier. One `QueryTier` +
//! `serve_query` over a seeded in-memory store; the dashboard-poll mix is
//! frozen-cache hits and 304s, so per-request `httpx` + socket + body
//! copy dominate and `ApiQuery::build` does almost nothing. Phase A is a
//! closed loop (capacity); phase B an open loop at fixed rates (latency
//! from due time).

use super::query;
use crate::gen::{self, Keys, Mesh, Pick, Rng};
use crate::http::{self, PhaseOut, Stub};
use crate::report::RunResult;
use crate::{env, layers, sizes, stats, Ctx};
use parking_lot::Mutex;
use pingmesh_dsa::store::{CosmosStore, StreamName, PARTIAL_WINDOW};
use pingmesh_httpx::Request;
use pingmesh_serve::{serve_query, QueryTier};
use pingmesh_types::SimTime;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::TcpListener;
use tokio::task::JoinHandle;

const HOT: u64 = sizes::DASH_WINDOWS - 1;
/// Picks drawn per connection; the generator cycles through them.
const PICKS_PER_CONN: usize = 1 << 18;
/// The latency limit `serve.max_ok_rate` is read against.
const P99_LIMIT_MS: f64 = 10.0;

pub(super) struct Stage {
    pub mesh: Mesh,
    pub store: Arc<Mutex<CosmosStore>>,
    pub tier: QueryTier,
    pub addr: SocketAddr,
    pub server: JoinHandle<()>,
    pub keys: Keys,
}

impl Stage {
    /// Binds a listener and serves `tier` on it.
    pub fn serve(rt: &tokio::runtime::Runtime, tier: &QueryTier) -> (SocketAddr, JoinHandle<()>) {
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
            let addr = listener.local_addr().expect("addr");
            (addr, tokio::spawn(serve_query(listener, tier.clone())))
        })
    }

    pub fn stop(self, rt: &tokio::runtime::Runtime) {
        self.server.abort();
        let _ = rt.block_on(self.server);
    }
}

/// Topology, pinglists, corpus, seeded store, warmed tier and listening
/// socket: everything up to the first timed request.
fn setup(rt: &tokio::runtime::Runtime, seed: u64) -> Stage {
    let mesh = Mesh::two_medium();
    let per_window = sizes::DASH_RECORDS_PER_WINDOW / sizes::DASH_SEED_BATCH;
    let batches = mesh.batches(
        &mut Rng::new(seed, 1),
        per_window * sizes::DASH_WINDOWS as usize,
        sizes::DASH_SEED_BATCH,
        0,
        sizes::DASH_WINDOWS,
    );
    let mut store = CosmosStore::with_defaults();
    gen::append_all(&mut store, &batches);
    drop(batches);
    let store = Arc::new(Mutex::new(store));
    let tier = QueryTier::new(Arc::clone(&store));
    tier.warm(SimTime::ZERO, gen::window_start(HOT));
    let (addr, server) = Stage::serve(rt, &tier);
    Stage {
        mesh,
        store,
        tier,
        addr,
        server,
        keys: Keys::new(sizes::DASH_WINDOWS),
    }
}

/// Keeps the last window hot: a trickle of fresh records, so hot keys
/// keep invalidating and frozen keys have to re-prove freshness.
fn trickle(stage: &Stage, seed: u64, stop: &AtomicBool) -> u64 {
    let mut rng = Rng::new(seed, 9);
    let mut appends = 0;
    while !stop.load(Ordering::Relaxed) {
        let batch = stage.mesh.agent_batch(
            &mut rng,
            sizes::DASH_TRICKLE_RECORDS,
            gen::window_start(HOT),
            PARTIAL_WINDOW,
        );
        let t = batch.iter().map(|r| r.ts).max().expect("non-empty");
        stage.store.lock().append(
            StreamName {
                dc: batch[0].src_dc,
            },
            &batch,
            t,
        );
        appends += 1;
        std::thread::sleep(Duration::from_millis(sizes::DASH_TRICKLE_MS));
    }
    appends
}

fn account(res: &mut RunResult, phase: &PhaseOut) {
    res.attempted += phase.answered.max(phase.scheduled) + phase.failed;
    res.failed += phase.failed;
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let mut res = RunResult::new("query_dashboard", ctx.traced, ctx.seed);
    let rt = tokio::runtime::Runtime::new().expect("runtime");

    let mut setups = Vec::new();
    let mut stage = None;
    for _ in 0..sizes::SETUP_REPEATS {
        if let Some(prev) = stage.take() {
            Stage::stop(prev, &rt);
        }
        let t0 = Instant::now();
        stage = Some(setup(&rt, ctx.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let stage = stage.expect("at least one set-up");
    res.set("setup_s", stats::median(&setups));
    let picks: Vec<Vec<Pick>> = (0..sizes::DASH_CONNS)
        .map(|c| {
            gen::dashboard_picks(
                &stage.keys,
                &mut Rng::new(ctx.seed, 100 + c as u64),
                PICKS_PER_CONN,
            )
        })
        .collect();

    let stop = AtomicBool::new(false);
    let seed = ctx.seed;
    let (a, mut mid, sides, appends) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| trickle(&stage, seed, &stop));
        let keys = &stage.keys;
        // Phase A: closed loop, capacity.
        let a = query::closed(
            stage.addr,
            keys,
            &picks,
            sizes::DASH_DEPTH,
            ctx.scaled_secs(sizes::DASH_A_WARM_SECS),
            ctx.scaled_secs(sizes::DASH_A_SECS),
            &mut ctx.tracer,
        );
        // Phase B: open loop at the frozen rates. The untraced run needs
        // `mid` only; the traced run brackets it with `low` and `high`.
        let b = |rate: f64, secs: f64, ctx: &mut Ctx| {
            query::open(
                stage.addr,
                keys,
                &picks,
                rate,
                ctx.scaled_secs(sizes::DASH_B_WARM_SECS),
                ctx.scaled_secs(secs),
                &mut ctx.tracer,
            )
        };
        let mid = b(sizes::DASH_RATE_MID, sizes::DASH_B_SECS, ctx);
        let sides = ctx.traced.then(|| {
            (
                b(sizes::DASH_RATE_LOW, sizes::DASH_B_SIDE_SECS, ctx),
                b(sizes::DASH_RATE_HIGH, sizes::DASH_B_SIDE_SECS, ctx),
            )
        });
        stop.store(true, Ordering::Relaxed);
        (a, mid, sides, appender.join().expect("appender thread"))
    });

    // --- output checks, after quiesce.
    let (checked, mismatches) = query::byte_identity(stage.addr, &stage.store, &stage.keys);
    res.check(
        format!("{checked} cacheable keys byte-identical to ApiQuery::build after quiesce"),
        mismatches == 0,
    );
    res.attempted += checked;
    res.failed += mismatches;
    account(&mut res, &a);
    account(&mut res, &mid);
    res.check(
        format!(
            "every status 200 or 304, every scheduled request answered ({} + {} responses)",
            a.answered, mid.answered
        ),
        a.failed == 0 && mid.failed == 0 && mid.answered == mid.scheduled,
    );

    let req_per_s = a.answered as f64 / a.measured.as_secs_f64();
    let lat = mid.latency.summary();
    res.set("throughput_per_s", req_per_s);
    res.set_percentile("latency_ms", lat.p50_ms, lat.n);
    res.set("peak_rss_mb", env::peak_rss_mb());
    res.set("query_req_per_s", req_per_s);
    res.set_percentile("query_p50_ms", lat.p50_ms, lat.n);
    res.set_percentile("query_p99_ms", lat.p99_ms, lat.n);
    res.exact(
        "corpus_records",
        sizes::DASH_RECORDS_PER_WINDOW as u64 * sizes::DASH_WINDOWS,
    );
    res.exact("keys", stage.keys.paths.len());
    res.exact(
        "picks_hash",
        format!("{:#018x}", gen::picks_hash(&picks[0])),
    );
    res.exact("open_loop_mid_requests", mid.scheduled);

    if ctx.traced {
        let late = mid.lateness.summary();
        res.set_percentile("loadgen.late_p99_ms", late.p99_ms, late.n);
        let (mut low, mut high) = sides.expect("traced runs bracket mid");
        account(&mut res, &low);
        account(&mut res, &high);
        let (l, h) = (low.latency.summary(), high.latency.summary());
        res.set_percentile("serve.p99_ms_at_low", l.p99_ms, l.n);
        res.set_percentile("serve.p99_ms_at_high", h.p99_ms, h.n);
        // Highest fixed rate whose p99 meets the limit with no backlog
        // left growing at the end of its phase.
        let ok = |p: &PhaseOut, s: &stats::LatencySummary, rate: f64| {
            s.p99_ms.is_some_and(|p99| p99 <= P99_LIMIT_MS)
                && p.failed == 0
                && (p.backlog_end as f64) <= rate * P99_LIMIT_MS / 1e3
        };
        let max_ok = [
            (sizes::DASH_RATE_HIGH, ok(&high, &h, sizes::DASH_RATE_HIGH)),
            (sizes::DASH_RATE_MID, ok(&mid, &lat, sizes::DASH_RATE_MID)),
            (sizes::DASH_RATE_LOW, ok(&low, &l, sizes::DASH_RATE_LOW)),
        ]
        .iter()
        .find(|(_, ok)| *ok)
        .map_or(0.0, |(rate, _)| *rate);
        res.set("serve.max_ok_rate", max_ok);
        let (n200, n304) = (
            a.n200 + mid.n200 + low.n200 + high.n200,
            a.n304 + mid.n304 + low.n304 + high.n304,
        );
        res.set("serve.ratio_304", n304 as f64 / (n200 + n304).max(1) as f64);
        layers::tier_stats(&mut res, &stage.tier, appends);

        // The same generator against a canned-bytes stub.
        let stub = Stub::start(b"HTTP/1.1 304 Not Modified\r\netag: \"0123456789abcdef\"\r\ncontent-length: 0\r\nconnection: keep-alive\r\n\r\n")
            .expect("stub");
        let s = query::closed(
            stub.addr,
            &stage.keys,
            &picks,
            sizes::DASH_DEPTH,
            Duration::from_millis(300),
            Duration::from_secs(2),
            &mut ctx.tracer,
        );
        drop(stub);
        res.set(
            "loadgen.stub_req_per_s",
            s.answered as f64 / s.measured.as_secs_f64(),
        );

        // Layers, called directly.
        layers::httpx_socket(&mut res, &mut ctx.tracer, stage.addr);
        let path = &stage.keys.paths[0];
        let captured = stage.tier.respond(&Request::get(path));
        layers::httpx_codec(
            &mut res,
            &mut ctx.tracer,
            &http::get_bytes(path, None),
            &captured,
        );
        layers::dsa_reads(
            &mut res,
            &mut ctx.tracer,
            &stage.store.lock(),
            sizes::DASH_WINDOWS,
        );
        let fresh = stage.mesh.agent_batch(
            &mut Rng::new(ctx.seed, 10),
            45,
            gen::window_start(HOT),
            PARTIAL_WINDOW,
        );
        layers::serve_direct(&mut res, &mut ctx.tracer, &stage.store, &stage.keys, &fresh);
    }
    res.set("failed_share", res.failed_share());
    stage.stop(&rt);
    res
}
