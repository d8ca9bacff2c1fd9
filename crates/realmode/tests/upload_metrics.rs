//! The upload counters as a scraper sees them on `GET /metrics`. A binary
//! of its own because the registry is process-wide: no other test here
//! uploads, so the totals are this test's alone.

use pingmesh_httpx::{Request, Response};
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
fn series(page: &str, name: &str) -> Vec<(String, u64)> {
    page.lines()
        .filter_map(|l| l.strip_prefix(name))
        .filter(|rest| rest.starts_with('{') || rest.starts_with(' '))
        .map(|rest| {
            let (labels, value) = rest.rsplit_once(' ').unwrap();
            (labels.to_string(), value.parse().unwrap())
        })
        .collect()
}

fn value(page: &str, name: &str, labels: &str) -> u64 {
    series(page, name)
        .into_iter()
        .find(|(l, _)| l == labels)
        .unwrap_or_else(|| panic!("no {name}{labels}"))
        .1
}

#[tokio::test]
async fn frame_uploads_cost_64_bytes_a_record_and_refusals_are_counted() {
    const BYTES: &str = "pingmesh_realmode_upload_body_bytes_total";
    const MALFORMED: &str = "pingmesh_realmode_uploads_malformed_total";
    let (frame, json) = ("{codec=\"frame\"}", "{codec=\"json\"}");

    let c = Collector::new();
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    tokio::spawn(serve_collector(listener, c.clone()));

    // Both label values exist before the first upload, and only they.
    let page = String::from_utf8(call(addr, &Request::get("/metrics")).await.body).unwrap();
    for name in [BYTES, MALFORMED] {
        let labels: Vec<String> = series(&page, name).into_iter().map(|s| s.0).collect();
        assert_eq!(labels.len(), 2, "{name}: {labels:?}");
        assert!(labels.contains(&frame.to_string()) && labels.contains(&json.to_string()));
    }

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
    let records = value(&page, "pingmesh_realmode_uploaded_records_total", "");
    assert_eq!(records, 10_000);
    let per_record = value(&page, BYTES, frame) as f64 / records as f64;
    assert!(per_record <= 64.1, "{per_record} bytes a record");
    assert_eq!(value(&page, BYTES, json), 0);
    assert_eq!(value(&page, MALFORMED, frame), 1);
    assert_eq!(value(&page, MALFORMED, json), 1);
    assert_eq!(c.stats().records, 10_000);
}
