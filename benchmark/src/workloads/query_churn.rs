//! `query_churn`: the same serve tier the other way round — over a
//! durable collector's store, with writes beside reads. An uploader posts
//! a batch to `/upload` every 5 ms on a fixed schedule, all into the open
//! window, while closed-loop readers at depth 1 ask mostly for keys that
//! window invalidates: every hot key must revalidate or rebuild under the
//! store lock while appends, WAL writes and fsyncs hold it. Also the
//! paper's "data produced → row visible" path.

use super::query;
use super::query_dashboard::Stage;
use crate::gen::{self, Keys, Mesh, Pick, Rng};
use crate::http::{self, Client};
use crate::report::RunResult;
use crate::stats::LatencyLog;
use crate::{env, layers, sizes, stats, Ctx};
use pingmesh_dsa::store::PARTIAL_WINDOW;
use pingmesh_httpx::Request;
use pingmesh_realmode::collector::{serve_collector, upload_records_with, Collector};
use pingmesh_serve::QueryTier;
use pingmesh_types::{ProbeRecord, SimTime};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tokio::net::TcpListener;
use tokio::task::JoinHandle;

const OPEN: u64 = sizes::CHURN_FROZEN_WINDOWS;
const WINDOWS: u64 = OPEN + 1;
const UPLOAD_DEADLINE: Duration = Duration::from_secs(30);
const PICKS_PER_CONN: usize = 1 << 16;

struct Churn {
    query: Stage,
    collector: Collector,
    upload_addr: SocketAddr,
    upload_server: JoinHandle<()>,
    uploads: Arc<Vec<Vec<ProbeRecord>>>,
}

/// Topology, pinglists, the frozen corpus seeded through the durable
/// store, the upload batches, a warmed tier and both listening sockets.
fn setup(rt: &tokio::runtime::Runtime, seed: u64, n_uploads: usize) -> (Churn, PathBuf) {
    let mesh = Mesh::two_medium();
    let per_window = sizes::CHURN_RECORDS_PER_WINDOW / sizes::DASH_SEED_BATCH;
    let corpus = mesh.batches(
        &mut Rng::new(seed, 1),
        per_window * OPEN as usize,
        sizes::DASH_SEED_BATCH,
        0,
        OPEN,
    );
    let uploads = mesh.batches(
        &mut Rng::new(seed, 2),
        n_uploads,
        sizes::CHURN_UPLOAD_RECORDS,
        OPEN,
        1,
    );
    let dir = env::fresh_dir("query_churn").expect("data dir");
    let collector = Collector::durable_at(&dir).expect("open durable store");
    gen::append_all(&mut collector.store().lock(), &corpus);
    drop(corpus);
    let tier = QueryTier::new(Arc::clone(collector.store()));
    tier.warm(SimTime::ZERO, gen::window_start(OPEN));
    let (addr, server) = Stage::serve(rt, &tier);
    let (upload_addr, upload_server) = rt.block_on(async {
        let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
        let addr = listener.local_addr().expect("addr");
        (
            addr,
            tokio::spawn(serve_collector(listener, collector.clone())),
        )
    });
    let churn = Churn {
        query: Stage {
            mesh,
            store: Arc::clone(collector.store()),
            tier,
            addr,
            server,
            keys: Keys::new(WINDOWS),
        },
        collector,
        upload_addr,
        upload_server,
        uploads: Arc::new(uploads),
    };
    (churn, dir)
}

impl Churn {
    /// Stops both servers and the compactor; the store stays usable
    /// through `query.store` until the returned stage is dropped.
    fn stop(
        self,
        rt: &tokio::runtime::Runtime,
    ) -> Arc<parking_lot::Mutex<pingmesh_dsa::store::CosmosStore>> {
        self.upload_server.abort();
        let _ = rt.block_on(self.upload_server);
        self.collector.stop_background_compaction();
        drop(self.collector);
        let store = Arc::clone(&self.query.store);
        self.query.stop(rt);
        store
    }
}

/// One acknowledged upload the fresh reader must find.
struct Fresh {
    sent: Instant,
    /// Records acknowledged so far, this upload's included.
    acked: u64,
}

#[derive(Default)]
struct UploadsOut {
    acks: LatencyLog,
    lateness: LatencyLog,
    failed: u64,
    spans: Vec<(u64, Instant, Instant)>,
}

/// Posts upload `i` at `start + i × 5 ms`, whatever the ones before it
/// are doing; every 20th hands its acknowledgement to the fresh reader.
async fn upload_schedule(
    addr: SocketAddr,
    uploads: Arc<Vec<Vec<ProbeRecord>>>,
    start: Instant,
    acked: Arc<AtomicU64>,
    fresh: mpsc::Sender<Fresh>,
) -> UploadsOut {
    let every = Duration::from_millis(sizes::CHURN_UPLOAD_EVERY_MS);
    let mut tasks = Vec::with_capacity(uploads.len());
    let mut out = UploadsOut::default();
    for i in 0..uploads.len() {
        let due = start + every * i as u32;
        tokio::time::sleep(due.saturating_duration_since(Instant::now())).await;
        out.lateness
            .push(Instant::now().saturating_duration_since(due));
        let (uploads, acked, fresh) = (Arc::clone(&uploads), Arc::clone(&acked), fresh.clone());
        tasks.push(tokio::spawn(async move {
            let sent = Instant::now();
            let r = upload_records_with(addr, &uploads[i], UPLOAD_DEADLINE).await;
            let done = Instant::now();
            if r.is_ok() {
                let total = acked.fetch_add(uploads[i].len() as u64, Ordering::SeqCst)
                    + uploads[i].len() as u64;
                if (i as u64 + 1).is_multiple_of(sizes::CHURN_FRESH_EVERY) {
                    let _ = fresh.send(Fresh { sent, acked: total });
                }
            }
            (r.is_ok(), sent, done)
        }));
    }
    for (i, t) in tasks.into_iter().enumerate() {
        match t.await {
            Ok((true, sent, done)) => {
                out.acks.push(done.duration_since(sent));
                out.spans.push((i as u64, sent, done));
            }
            _ => out.failed += 1,
        }
    }
    out
}

#[derive(Default)]
struct FreshOut {
    reads: LatencyLog,
    stale: u64,
    errors: u64,
}

/// Sums `dcs[].probes` of an SLA body: every probe the window holds.
fn sla_probe_total(body: &[u8]) -> Option<u64> {
    let v = serde_json::parse_value(std::str::from_utf8(body).ok()?).ok()?;
    v.get("dcs")?
        .as_array()?
        .iter()
        .map(|row| row.get("probes").and_then(|p| p.as_u64()))
        .sum()
}

/// After each handed-over acknowledgement: `GET /api/sla` on the open
/// window over this thread's own connection. The body's probe total must
/// cover everything acknowledged; upload send → this response is the
/// fresh-read sample.
fn fresh_reader(addr: SocketAddr, keys: &Keys, rx: mpsc::Receiver<Fresh>) -> FreshOut {
    let mut out = FreshOut::default();
    let request = http::get_bytes(&keys.paths[keys.open_sla()], None);
    let Ok(mut client) = Client::connect(addr) else {
        out.errors += 1;
        return out;
    };
    for f in rx {
        match client.exchange(&request) {
            Ok(resp) if resp.status == 200 => {
                let seen = sla_probe_total(client.bytes(&resp.body)).unwrap_or(0);
                if seen >= f.acked {
                    out.reads.push(Instant::now().duration_since(f.sent));
                } else {
                    out.stale += 1;
                }
            }
            _ => out.errors += 1,
        }
    }
    out
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let mut res = RunResult::new("query_churn", ctx.traced, ctx.seed);
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    let secs = sizes::CHURN_SECS * ctx.scale;
    let n_uploads = (secs * 1e3 / sizes::CHURN_UPLOAD_EVERY_MS as f64).round() as usize;

    let mut setups = Vec::new();
    let mut churn = None;
    for _ in 0..sizes::SETUP_REPEATS {
        if let Some((prev, _)) = churn.take() {
            drop(Churn::stop(prev, &rt));
        }
        let t0 = Instant::now();
        churn = Some(setup(&rt, ctx.seed, n_uploads));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (churn, dir) = churn.expect("at least one set-up");
    res.set("setup_s", stats::median(&setups));
    let keys = &churn.query.keys;
    let picks: Vec<Vec<Pick>> = (0..sizes::CHURN_CONNS)
        .map(|c| {
            gen::churn_picks(
                keys,
                &mut Rng::new(ctx.seed, 100 + c as u64),
                PICKS_PER_CONN,
            )
        })
        .collect();
    let corpus_records = churn.query.store.lock().record_count();

    // --- the timed run: readers, the upload schedule and the fresh
    // reader, side by side for the same stretch.
    let registry = pingmesh_obs::registry();
    let rejected = registry.counter("pingmesh_realmode_uploads_rejected_total");
    let wal_bytes = registry.counter("pingmesh_store_wal_bytes_total");
    let (rejected_before, wal_before) = (rejected.get(), wal_bytes.get());
    let acked = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let (reads, uploads, fresh) = std::thread::scope(|scope| {
        let fresh = scope.spawn(|| fresh_reader(churn.query.addr, keys, rx));
        let uploading = scope.spawn(|| {
            rt.block_on(upload_schedule(
                churn.upload_addr,
                Arc::clone(&churn.uploads),
                start,
                Arc::clone(&acked),
                tx,
            ))
        });
        let reads = query::closed(
            churn.query.addr,
            keys,
            &picks,
            1,
            Duration::from_secs_f64(sizes::CHURN_WARM_SECS),
            Duration::from_secs_f64(secs - sizes::CHURN_WARM_SECS),
            &mut ctx.tracer,
        );
        (
            reads,
            uploading.join().expect("upload thread"),
            fresh.join().expect("fresh-read thread"),
        )
    });
    let (mut reads, mut uploads, mut fresh) = (reads, uploads, fresh);
    for &(i, sent, done) in &uploads.spans {
        ctx.tracer.add("realmode.upload_records", i, sent, done);
    }

    // --- output checks, after quiesce.
    let acked = acked.load(Ordering::SeqCst);
    let stored = churn.query.store.lock().record_count();
    res.check(
        format!("{n_uploads} uploads acknowledged ({acked} records) and stored beside the corpus"),
        uploads.failed == 0
            && acked == (n_uploads * sizes::CHURN_UPLOAD_RECORDS) as u64
            && stored == corpus_records + acked,
    );
    let fresh_expected = n_uploads as u64 / sizes::CHURN_FRESH_EVERY;
    res.check(
        format!(
            "{} fresh reads, none stale: each covers everything acknowledged before it",
            fresh.reads.len()
        ),
        fresh.stale == 0 && fresh.errors == 0 && fresh.reads.len() as u64 == fresh_expected,
    );
    let (checked, mismatches) = query::byte_identity(churn.query.addr, &churn.query.store, keys);
    res.check(
        format!("{checked} cacheable keys byte-identical to ApiQuery::build after quiesce"),
        mismatches == 0,
    );
    res.check(
        format!("every query status 200 ({} responses)", reads.answered),
        reads.failed == 0 && reads.n304 == 0,
    );
    res.attempted = reads.answered + reads.failed + n_uploads as u64 + fresh_expected + checked;
    res.failed = reads.failed
        + uploads.failed
        + fresh.stale
        + fresh.errors
        + fresh_expected.saturating_sub(fresh.reads.len() as u64 + fresh.stale + fresh.errors)
        + mismatches;

    let req_per_s = reads.answered as f64 / reads.measured.as_secs_f64();
    let lat = reads.latency.summary();
    let ack = uploads.acks.summary();
    let fr = fresh.reads.summary();
    res.set("throughput_per_s", req_per_s);
    res.set_percentile("latency_ms", lat.p50_ms, lat.n);
    res.set("peak_rss_mb", env::peak_rss_mb());
    res.set("query_req_per_s", req_per_s);
    res.set_percentile("query_p50_ms", lat.p50_ms, lat.n);
    res.set_percentile("query_p99_ms", lat.p99_ms, lat.n);
    res.set_percentile("upload_ack_p50_ms", ack.p50_ms, ack.n);
    res.set_percentile("upload_ack_p90_ms", ack.p90_ms, ack.n);
    res.set_percentile("fresh_read_p50_ms", fr.p50_ms, fr.n);
    res.set_percentile("fresh_read_p90_ms", fr.p90_ms, fr.n);
    res.exact("corpus_records", corpus_records);
    res.exact("uploads", n_uploads);
    res.exact("uploaded_records", acked);
    res.exact("fresh_reads", fresh_expected);
    res.exact(
        "picks_hash",
        format!("{:#018x}", gen::picks_hash(&picks[0])),
    );

    if ctx.traced {
        let late = uploads.lateness.summary();
        res.set_percentile("loadgen.late_p99_ms", late.p99_ms, late.n);
        res.set_percentile("realmode.upload_ack_p99_ms", ack.p99_ms, ack.n);
        res.set(
            "realmode.uploads_rejected",
            (rejected.get() - rejected_before) as f64,
        );
        res.set(
            "dsa.wal_bytes_per_record",
            (wal_bytes.get() - wal_before) as f64 / acked.max(1) as f64,
        );
        if let Some(d) = churn.query.store.lock().durability_stats() {
            res.set("dsa.checkpoints", d.checkpoints as f64);
        }
        res.set("serve.ratio_304", 0.0);
        layers::tier_stats(&mut res, &churn.query.tier, n_uploads as u64);
        layers::httpx_socket(&mut res, &mut ctx.tracer, churn.query.addr);
        let path = &keys.paths[keys.open_sla()];
        let captured = churn.query.tier.respond(&Request::get(path));
        layers::httpx_codec(
            &mut res,
            &mut ctx.tracer,
            &http::get_bytes(path, None),
            &captured,
        );
        layers::dsa_reads(
            &mut res,
            &mut ctx.tracer,
            &churn.query.store.lock(),
            WINDOWS,
        );
        let fresh_records = churn.query.mesh.agent_batch(
            &mut Rng::new(ctx.seed, 10),
            45,
            gen::window_start(OPEN),
            PARTIAL_WINDOW,
        );
        layers::serve_direct(
            &mut res,
            &mut ctx.tracer,
            &churn.query.store,
            keys,
            &fresh_records,
        );
    }
    res.set("failed_share", res.failed_share());
    drop(churn.stop(&rt));
    let _ = std::fs::remove_dir_all(&dir);
    res
}
