//! The upload counters, and the WAL-append and fold timings under them,
//! as a scraper sees them on `GET /metrics`. A binary of its own because the
//! registry is process-wide: no other test here uploads, so the totals are
//! this test's alone.

use pingmesh_httpx::{Request, Response};
use pingmesh_obs::encode::parse_prometheus;
use pingmesh_realmode::collector::{
    serve_collector, upload_records, Collector, UPLOAD_CONTENT_TYPE,
};
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::net::SocketAddr;
use std::time::Duration;
use tokio::net::TcpListener;

fn rec(i: u64) -> ProbeRecord {
    ProbeRecord {
        ts: SimTime(i),
        src: ServerId(i as u32),
        dst: ServerId(7),
        src_pod: PodId(0),
        dst_pod: PodId(1),
        src_podset: PodsetId(0),
        dst_podset: PodsetId(0),
        src_dc: DcId(0),
        dst_dc: DcId(0),
        kind: ProbeKind::TcpSyn,
        qos: QosClass::High,
        src_port: 40_000,
        dst_port: 8_100,
        outcome: ProbeOutcome::Success {
            rtt: SimDuration::from_micros(200 + i % 300),
        },
    }
}

async fn call(addr: SocketAddr, req: &Request) -> Response {
    pingmesh_httpx::call(addr, req, Duration::from_secs(10))
        .await
        .unwrap()
}

/// Every sample of the counter `name` on a metrics page, by its labels.
fn series(page: &str, name: &str) -> Vec<(Vec<(String, String)>, u64)> {
    let samples = parse_prometheus(page).into_iter();
    let named = samples.filter(|s| s.name == name);
    named.map(|s| (s.labels, s.value as u64)).collect()
}

/// The counter `name` with `codec` as its one label, or with none.
fn value(page: &str, name: &str, codec: Option<&str>) -> u64 {
    let labels: Vec<_> = codec
        .map(|c| ("codec".into(), c.into()))
        .into_iter()
        .collect();
    series(page, name)
        .into_iter()
        .find(|(l, _)| *l == labels)
        .unwrap_or_else(|| panic!("no {name}{labels:?}"))
        .1
}

#[tokio::test]
async fn frame_uploads_cost_64_bytes_a_record_and_refusals_are_counted() {
    const BYTES: &str = "pingmesh_realmode_upload_body_bytes_total";
    const MALFORMED: &str = "pingmesh_realmode_uploads_malformed_total";
    const WAL_APPENDS: &str = "pingmesh_store_wal_append_us_count";
    const FOLDS: &str = "pingmesh_store_fold_us_count";
    let (frame, json) = (Some("frame"), Some("json"));

    // An in-memory store writes no WAL, so its append times none; it
    // still folds.
    let mut in_memory = pingmesh_dsa::CosmosStore::with_defaults();
    let stream = pingmesh_dsa::StreamName { dc: DcId(0) };
    assert!(in_memory.append(stream, &[rec(0)], SimTime(0)));

    let c = Collector::new();
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    tokio::spawn(serve_collector(listener, c.clone()));

    // Both label values exist before the first upload, and only they.
    let page = String::from_utf8(call(addr, &Request::get("/metrics")).await.body).unwrap();
    for name in [BYTES, MALFORMED] {
        let codecs: Vec<_> = series(&page, name).into_iter().map(|s| s.0).collect();
        let codec = |c: &str| vec![("codec".to_string(), c.to_string())];
        assert_eq!(codecs.len(), 2, "{name}: {codecs:?}");
        assert!(codecs.contains(&codec("frame")) && codecs.contains(&codec("json")));
    }
    assert_eq!(value(&page, WAL_APPENDS, None), 0, "no WAL append yet");
    assert_eq!(value(&page, FOLDS, None), 1, "the in-memory append's fold");

    for b in 0..5u64 {
        let batch: Vec<ProbeRecord> = (b * 2_000..(b + 1) * 2_000).map(rec).collect();
        upload_records(addr, &batch).await.unwrap();
    }
    let mut garbage = Request::post("/upload", vec![0xab; 100]);
    garbage
        .headers
        .push(("content-type".into(), UPLOAD_CONTENT_TYPE.into()));
    assert_eq!(call(addr, &garbage).await.status, 400);
    let not_json = Request::post("/upload", b"[{".to_vec());
    assert_eq!(call(addr, &not_json).await.status, 400);

    let page = String::from_utf8(call(addr, &Request::get("/metrics")).await.body).unwrap();
    let records = value(&page, "pingmesh_realmode_uploaded_records_total", None);
    assert_eq!(records, 10_000);
    let per_record = value(&page, BYTES, frame) as f64 / records as f64;
    assert!(per_record <= 64.1, "{per_record} bytes a record");
    assert_eq!(value(&page, BYTES, json), 0);
    assert_eq!(value(&page, MALFORMED, frame), 1);
    assert_eq!(value(&page, MALFORMED, json), 1);
    assert_eq!(value(&page, WAL_APPENDS, None), 5, "one per durable upload");
    assert_eq!(value(&page, FOLDS, None), 1 + 5, "one per durable upload");
    assert_eq!(c.stats().records, 10_000);
}
