//! `ingest_durable`: the write path agents really use. Closed-loop
//! uploaders call `upload_records_with` — JSON body, a new connection per
//! upload — against `serve_collector` over a durable store with its
//! background compactor and group commit. The only workload where
//! `serde_json`, `httpx` (body path), `realmode` and `dsa::durable` do
//! most of the work.

use crate::gen::{self, Mesh, Rng};
use crate::layers::{self, GROUP_COMMIT_BYTES};
use crate::report::RunResult;
use crate::span::Tracer;
use crate::stats::{self, LatencyLog};
use crate::{env, sizes, Ctx};
use pingmesh_dsa::store::{CosmosStore, StreamName, WAL_CHECKPOINT_BYTES};
use pingmesh_httpx::{Request, Response};
use pingmesh_realmode::collector::{serve_collector, upload_records_with, Collector};
use pingmesh_types::{ProbeRecord, SimTime};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::TcpListener;
use tokio::task::JoinHandle;

const UPLOAD_DEADLINE: Duration = Duration::from_secs(30);
/// The staged replay takes every this-many-th batch.
const REPLAY_EVERY: usize = 10;

struct Stage {
    batches: Arc<Vec<Vec<ProbeRecord>>>,
    collector: Collector,
    addr: SocketAddr,
    server: JoinHandle<()>,
}

/// Topology, pinglists, record batches, a fresh durable collector and its
/// listening socket: everything up to the first timed upload.
fn setup(rt: &tokio::runtime::Runtime, seed: u64, n_batches: usize) -> (Stage, PathBuf) {
    let mesh = Mesh::two_medium();
    let batches = mesh.batches(
        &mut Rng::new(seed, 1),
        n_batches,
        sizes::INGEST_BATCH_RECORDS,
        0,
        sizes::INGEST_WINDOWS,
    );
    let dir = env::fresh_dir("ingest_durable").expect("data dir");
    let collector = Collector::durable_at(&dir).expect("open durable store");
    let (addr, server) = rt.block_on(async {
        let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
        let addr = listener.local_addr().expect("addr");
        (
            addr,
            tokio::spawn(serve_collector(listener, collector.clone())),
        )
    });
    let stage = Stage {
        batches: Arc::new(batches),
        collector,
        addr,
        server,
    };
    (stage, dir)
}

/// Stops the server and waits until nothing but `collector` holds the
/// store (connection tasks end with their one exchange).
fn quiesce(rt: &tokio::runtime::Runtime, stage: Stage) -> Arc<parking_lot::Mutex<CosmosStore>> {
    stage.server.abort();
    let _ = rt.block_on(stage.server);
    stage.collector.stop_background_compaction();
    let store = Arc::clone(stage.collector.store());
    drop(stage.collector);
    let until = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&store) > 1 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        Arc::strong_count(&store),
        1,
        "collector tasks still hold the store"
    );
    store
}

struct UploaderOut {
    acks: LatencyLog,
    acked_records: u64,
    failed: u64,
    tracer: Tracer,
}

async fn uploader(
    addr: SocketAddr,
    batches: Arc<Vec<Vec<ProbeRecord>>>,
    mine: usize,
    tracer: Tracer,
) -> UploaderOut {
    let mut out = UploaderOut {
        acks: LatencyLog::default(),
        acked_records: 0,
        failed: 0,
        tracer,
    };
    for (i, batch) in batches.iter().enumerate() {
        if i % sizes::INGEST_UPLOADERS != mine {
            continue;
        }
        let id = out.tracer.enter("realmode.upload_records", i as u64);
        let t0 = Instant::now();
        let r = upload_records_with(addr, batch, UPLOAD_DEADLINE).await;
        let took = t0.elapsed();
        out.tracer.exit(id);
        match r {
            Ok(()) => {
                out.acks.push(took);
                out.acked_records += batch.len() as u64;
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let mut res = RunResult::new("ingest_durable", ctx.traced, ctx.seed);
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    let n_batches = ctx.scaled(sizes::INGEST_BATCHES as u64, 60) as usize;

    let mut setups = Vec::new();
    let mut stage = None;
    for _ in 0..sizes::SETUP_REPEATS {
        if let Some((prev, _)) = stage.take() {
            drop(quiesce(&rt, prev));
        }
        let t0 = Instant::now();
        stage = Some(setup(&rt, ctx.seed, n_batches));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (stage, dir) = stage.expect("at least one set-up");
    res.set("setup_s", stats::median(&setups));
    let batches = Arc::clone(&stage.batches);
    let record_count: u64 = batches.iter().map(|b| b.len() as u64).sum();

    // --- the timed run: closed-loop uploaders, fixed work.
    let rejected = pingmesh_obs::registry().counter("pingmesh_realmode_uploads_rejected_total");
    let rejected_before = rejected.get();
    let origin = Instant::now();
    let t0 = Instant::now();
    let outs: Vec<UploaderOut> = rt.block_on(async {
        let handles: Vec<_> = (0..sizes::INGEST_UPLOADERS)
            .map(|u| {
                tokio::spawn(uploader(
                    stage.addr,
                    Arc::clone(&batches),
                    u,
                    Tracer::new(ctx.traced, origin),
                ))
            })
            .collect();
        let mut outs = Vec::new();
        for h in handles {
            outs.push(h.await.expect("uploader completes"));
        }
        outs
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut acks = LatencyLog::default();
    let (mut acked, mut failed) = (0u64, 0u64);
    for o in outs {
        acks.merge(o.acks);
        acked += o.acked_records;
        failed += o.failed;
        ctx.tracer.absorb(o.tracer);
    }
    res.attempted = n_batches as u64;
    res.failed = failed;
    let ack = acks.summary();

    if ctx.traced {
        layers::httpx_socket(&mut res, &mut ctx.tracer, stage.addr);
    }

    // --- output checks: what was acknowledged is stored, and survives a
    // reopen bit for bit.
    let store = quiesce(&rt, stage);
    let (from, to) = (SimTime::ZERO, gen::window_start(sizes::INGEST_WINDOWS));
    let (stored, agg_before) = {
        let s = store.lock();
        (s.record_count(), s.merged_window_aggregate(from, to))
    };
    drop(store);
    res.check(
        format!("acknowledged records ({acked}) equal the store's record_count ({stored})"),
        acked == stored && failed == 0 && acked == record_count,
    );
    let t0 = Instant::now();
    let reopened = CosmosStore::durable(&dir, 250_000, 3).expect("reopen");
    let recovery_s = t0.elapsed().as_secs_f64();
    res.check(
        format!("reopened store holds {stored} records and a bit-equal merged_window_aggregate"),
        reopened.record_count() == stored
            && reopened.merged_window_aggregate(from, to) == agg_before,
    );
    drop(reopened);

    let rate = acked as f64 / wall_s;
    res.set("throughput_per_s", rate);
    res.set_percentile("latency_ms", ack.p50_ms, ack.n);
    res.set("peak_rss_mb", env::peak_rss_mb());
    res.set("ingest_records_per_s", rate);
    res.set_percentile("upload_ack_p50_ms", ack.p50_ms, ack.n);
    res.set_percentile("upload_ack_p90_ms", ack.p90_ms, ack.n);
    res.set("recovery_s", recovery_s);
    res.set("failed_share", res.failed_share());
    res.exact("batches", n_batches);
    res.exact("records", record_count);
    res.exact(
        "batch_bytes_hash",
        format!(
            "{:#018x}",
            gen::batch_bytes_hash(&batches[..batches.len().min(8)])
        ),
    );

    if ctx.traced {
        res.set_percentile("realmode.upload_ack_p99_ms", ack.p99_ms, ack.n);
        res.set(
            "realmode.uploads_rejected",
            (rejected.get() - rejected_before) as f64,
        );
        res.set("dsa.recovery_records_per_s", stored as f64 / recovery_s);
        staged_replay(ctx, &mut res, &batches);
    }
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// The traced run's staged replay: the same batches, single-threaded,
/// straight through each layer's public entry point with no socket.
fn staged_replay(ctx: &mut Ctx, res: &mut RunResult, batches: &[Vec<ProbeRecord>]) {
    let sample: Vec<&Vec<ProbeRecord>> = batches.iter().step_by(REPLAY_EVERY).collect();
    let records: u64 = sample.iter().map(|b| b.len() as u64).sum();
    let per_record = |ns: u64| ns as f64 / records as f64;
    let tracer = &mut ctx.tracer;

    // serde_json, on real batches.
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(sample.len());
    let mut encode_ns = 0;
    for (i, b) in sample.iter().enumerate() {
        let (body, ns) = tracer.time("serde_json.to_vec", i as u64, || {
            serde_json::to_vec(*b).expect("encode")
        });
        encode_ns += ns;
        bodies.push(body);
    }
    res.set("serde_json.encode_ns_per_record", per_record(encode_ns));
    res.set(
        "serde_json.bytes_per_record",
        bodies.iter().map(|b| b.len() as u64).sum::<u64>() as f64 / records as f64,
    );
    let mut decode_ns = 0;
    for (i, body) in bodies.iter().enumerate() {
        let (decoded, ns) = tracer.time("serde_json.from_slice", i as u64, || {
            serde_json::from_slice::<Vec<ProbeRecord>>(body).expect("decode")
        });
        assert_eq!(&decoded, sample[i], "the wire format round-trips");
        decode_ns += ns;
    }
    res.set("serde_json.decode_ns_per_record", per_record(decode_ns));

    // dsa, in memory and durable with the collector's group-commit policy.
    let append = |store: &mut CosmosStore, b: &[ProbeRecord]| {
        let t = b.iter().map(|r| r.ts).max().expect("non-empty");
        assert!(store.append(StreamName { dc: b[0].src_dc }, b, t));
    };
    let mut mem = CosmosStore::with_defaults();
    let mut mem_ns = 0;
    for (i, b) in sample.iter().enumerate() {
        mem_ns += tracer
            .time("dsa.append", i as u64, || append(&mut mem, b))
            .1;
    }
    res.set("dsa.append_ns_per_record", per_record(mem_ns));
    res.set(
        "dsa.bytes_per_record",
        mem.logical_bytes() as f64 / records as f64,
    );
    drop(mem);

    let dir = env::fresh_dir("ingest_replay_store").expect("replay dir");
    let wal_bytes = pingmesh_obs::registry().counter("pingmesh_store_wal_bytes_total");
    let wal_before = wal_bytes.get();
    let mut durable = CosmosStore::durable(&dir, 250_000, 3).expect("open replay store");
    let (mut durable_ns, mut syncs, mut checkpoints) = (0, Vec::new(), Vec::new());
    for (i, b) in sample.iter().enumerate() {
        let id = tracer.enter("dsa.durable_append", i as u64);
        let t0 = Instant::now();
        append(&mut durable, b);
        durable_ns += t0.elapsed().as_nanos() as u64;
        if durable
            .durability_stats()
            .is_some_and(|d| d.unsynced_bytes >= GROUP_COMMIT_BYTES)
        {
            let (r, ns) = tracer.time("dsa.sync_wal", i as u64, || durable.sync_wal());
            r.expect("sync");
            syncs.push(ns as f64 / 1e6);
        }
        tracer.exit(id);
        // The collector's compactor does this off the request path.
        let (ran, ns) = tracer.time("dsa.maybe_checkpoint", i as u64, || {
            durable
                .maybe_checkpoint_with(WAL_CHECKPOINT_BYTES)
                .expect("checkpoint")
        });
        if ran {
            checkpoints.push(ns as f64 / 1e6);
        }
    }
    res.set("dsa.durable_append_ns_per_record", per_record(durable_ns));
    res.set(
        "dsa.wal_bytes_per_record",
        (wal_bytes.get() - wal_before) as f64 / records as f64,
    );
    res.set("dsa.wal_syncs", syncs.len() as f64);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    res.set_n(
        "dsa.wal_sync_ms_p50",
        if syncs.is_empty() {
            0.0
        } else {
            stats::median(&syncs)
        },
        Some(syncs.len() as u64),
    );
    res.set("dsa.wal_sync_ms_max", max(&syncs));
    res.set("dsa.checkpoints", checkpoints.len() as f64);
    res.set("dsa.checkpoint_ms_max", max(&checkpoints));
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    // realmode: the collector's handler with no socket. Self time is what
    // is left after the decode and the durable append it contains.
    let dir = env::fresh_dir("ingest_replay_collector").expect("replay dir");
    let collector = Collector::durable_at(&dir).expect("open replay collector");
    let requests: Vec<Request> = bodies
        .into_iter()
        .map(|b| Request::post("/upload", b))
        .collect();
    let mut respond_ns = 0;
    let mut last = Response::ok(Vec::new());
    for (i, req) in requests.iter().enumerate() {
        let (resp, ns) = tracer.time("realmode.respond", i as u64, || collector.respond(req));
        assert_eq!(resp.status, 200);
        respond_ns += ns;
        last = resp;
    }
    let sync_ns: f64 = syncs.iter().sum::<f64>() * 1e6;
    res.set(
        "realmode.collector_respond_us_per_record",
        ((respond_ns as f64 - decode_ns as f64 - durable_ns as f64 - sync_ns)
            / records as f64
            / 1e3)
            .max(0.0),
    );
    layers::httpx_codec(res, tracer, &requests[0].to_bytes(), &last);
    drop(collector);
    let _ = std::fs::remove_dir_all(&dir);
}
