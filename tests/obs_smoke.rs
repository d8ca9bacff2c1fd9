//! Self-monitoring smoke: provenance traces ride a probe end to end
//! through the simulator, the collector's observability endpoints stay
//! consistent across scrapes, and `/events` drop accounting is exact.
//!
//! The trace sampler and the enabled flag are process-global, so every
//! test here serializes on one mutex.

use pingmesh::controller::GeneratorConfig;
use pingmesh::netsim::DcProfile;
use pingmesh::obs;
use pingmesh::realmode::{serve_collector, Collector, HealthReport};
use pingmesh::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh::types::{SimDuration, SimTime};
use pingmesh::{Orchestrator, OrchestratorConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

static GUARD: Mutex<()> = Mutex::new(());

fn tiny_orchestrator() -> Orchestrator {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".into(),
                podsets: 2,
                pods_per_podset: 2,
                servers_per_pod: 3,
                leaves_per_podset: 2,
                spines: 2,
                borders: 1,
            }],
        })
        .unwrap(),
    );
    let config = OrchestratorConfig {
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(10),
            intra_dc_interval: SimDuration::from_secs(15),
            ..GeneratorConfig::default()
        },
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(
        topo,
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        config,
    )
}

/// ISSUE acceptance: with sampling boosted, a traced probe's id is
/// queryable end to end — every one of the seven pipeline stages records
/// spans, and at least one trace id appears in the event buffer with all
/// seven stages attached.
#[test]
fn sampled_trace_spans_every_pipeline_stage() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let before_mod = obs::trace::sample_mod();
    // 1/32 samples 5 of the 60 entries in the tiny mesh: enough to
    // guarantee a full ride, few enough that the span events all stay
    // resident in the 8 Ki event ring (mod 1 would arm every entry and
    // risk evicting early stages before the window folds).
    obs::trace::set_sample_mod(32);
    obs::trace::reset();
    let before_seq = obs::events().last_seq();

    let mut o = tiny_orchestrator();
    // 35 sim-minutes: the first 10-min window folds at 20 min (window
    // end + ingest lag), so tick and sla spans exist well before the end.
    o.run_until(SimTime::ZERO + SimDuration::from_mins(35));
    obs::trace::set_sample_mod(before_mod);

    let snap = obs::registry().snapshot();
    for stage in obs::trace::STAGES {
        let count = snap
            .samples
            .iter()
            .find_map(|(id, v)| match v {
                obs::SampleValue::Histogram(h)
                    if id.name == "pingmesh_stage_duration_us"
                        && id.labels.iter().any(|(k, v)| k == "stage" && v == stage) =>
                {
                    Some(h.count)
                }
                _ => None,
            })
            .unwrap_or(0);
        assert!(count > 0, "stage `{stage}` recorded no spans");
    }
    // `--nocapture` shows the per-stage latency table EXPERIMENTS.md
    // transcribes (durations are sim-time for record stages).
    for (id, v) in &snap.samples {
        if id.name != "pingmesh_stage_duration_us" {
            continue;
        }
        if let (Some((_, stage)), obs::SampleValue::Histogram(h)) =
            (id.labels.iter().find(|(k, _)| k == "stage"), v)
        {
            eprintln!(
                "stage {stage:<8} spans {:<5} p50 {:>10}us p99 {:>10}us",
                h.count,
                h.p50_us.unwrap_or(0),
                h.p99_us.unwrap_or(0)
            );
        }
    }
    assert!(
        snap.samples
            .iter()
            .any(|(id, _)| id.name == "pingmesh_trace_end_to_end_us"),
        "end-to-end freshness histogram missing"
    );

    // One id, all seven stages, straight out of the event buffer — the
    // same query `/events` serves.
    let mut stages_by_id: HashMap<u64, BTreeMap<String, u64>> = HashMap::new();
    for ev in obs::events().snapshot_since(before_seq) {
        if ev.name != "trace_span" {
            continue;
        }
        let mut id = None;
        let mut stage = None;
        for (k, v) in &ev.fields {
            match (*k, v) {
                ("trace_id", obs::Field::U64(n)) => id = Some(*n),
                ("stage", obs::Field::Str(s)) => stage = Some(s.clone()),
                _ => {}
            }
        }
        if let (Some(id), Some(stage)) = (id, stage) {
            *stages_by_id
                .entry(id)
                .or_default()
                .entry(stage)
                .or_insert(0) += 1;
        }
    }
    let full = stages_by_id
        .iter()
        .find(|(_, stages)| obs::trace::STAGES.iter().all(|s| stages.contains_key(*s)));
    assert!(
        full.is_some(),
        "no trace id covered all {} stages; best: {:?}",
        obs::trace::STAGES.len(),
        stages_by_id.values().map(|s| s.len()).max().unwrap_or(0)
    );
}

/// A series: its name and labels.
type Series = (String, Vec<(String, String)>);

/// Every `_total` counter on a `/metrics` page, by series. Every sample
/// line on the page must parse.
fn parse_totals(text: &str) -> BTreeMap<Series, f64> {
    let samples = obs::encode::parse_prometheus(text);
    let lines = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    assert_eq!(samples.len(), lines.count(), "a sample line did not parse");
    samples
        .into_iter()
        .filter(|s| s.name.ends_with("_total"))
        .map(|s| ((s.name, s.labels), s.value))
        .collect()
}

async fn get(addr: std::net::SocketAddr, path: &str) -> pingmesh::httpx::Response {
    let req = pingmesh::httpx::Request::get(path);
    pingmesh::httpx::call(addr, &req, pingmesh::httpx::DEFAULT_IO_TIMEOUT)
        .await
        .expect("scrape")
}

/// `/metrics` parses, every `_total` counter is monotone across two
/// scrapes with traffic in between, and `/healthz` reports every
/// pipeline stage.
// The guard intentionally spans awaits: it serializes the whole test
// against the process-global tracer, and each test owns its runtime so
// nothing else can contend for the lock on this thread.
#[allow(clippy::await_holding_lock)]
#[tokio::test]
async fn metrics_are_monotone_and_healthz_lists_every_stage() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let collector = Collector::new();
    let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    tokio::spawn(serve_collector(listener, collector.clone()));

    let first = get(addr, "/metrics").await;
    assert_eq!(first.status, 200);
    let first = parse_totals(&String::from_utf8(first.body).unwrap());
    assert!(
        first.keys().any(|(name, _)| name.starts_with("pingmesh_")),
        "exposition holds no pingmesh counters"
    );

    // Traffic between scrapes: a stats call and a healthz call both count
    // requests; counters may only grow.
    assert_eq!(get(addr, "/stats").await.status, 200);
    let healthz = get(addr, "/healthz").await;
    assert_eq!(healthz.status, 200);
    let report: HealthReport = serde_json::from_slice(&healthz.body).unwrap();
    assert_eq!(report.stages.len(), obs::trace::STAGES.len());
    for (st, name) in report.stages.iter().zip(obs::trace::STAGES) {
        assert_eq!(st.stage, name);
    }
    assert!(
        report.slos.iter().any(|s| s.slo == "freshness"),
        "freshness always evaluates: {report:?}"
    );

    let second = get(addr, "/metrics").await;
    let second = String::from_utf8(second.body).unwrap();
    // The runtime under every httpx server, bridged in as gauges: the
    // listener is a live socket, this scrape's client deadline a live
    // timer, and each earlier request parked the driver at least once.
    let gauges = obs::encode::parse_prometheus(&second);
    let gauge = |name: &str| {
        gauges
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
            .value
    };
    for (name, floor) in [
        ("pingmesh_runtime_driver_parks", 4.0),
        ("pingmesh_runtime_wakeups_sent", 0.0),
        ("pingmesh_runtime_sockets", 1.0),
        ("pingmesh_runtime_timers", 1.0),
    ] {
        assert!(gauge(name) >= floor, "{name} = {}", gauge(name));
    }
    let second = parse_totals(&second);
    for (key, v1) in &first {
        let v2 = second
            .get(key)
            .unwrap_or_else(|| panic!("{key:?} vanished between scrapes"));
        assert!(v2 >= v1, "{key:?} went backwards: {v1} -> {v2}");
    }
    let requests = second
        .iter()
        .filter(|((name, _), _)| name == "pingmesh_realmode_requests_total")
        .map(|(_, v)| *v)
        .sum::<f64>();
    assert!(
        requests >= 4.0,
        "request counting missed scrapes: {requests}"
    );
}

/// `/events?since=` pagination across ring-buffer drop boundaries: the
/// response headers account for every event the cursor can never see.
/// After clearing the ring, accepted − returned must equal the drop
/// counter's delta exactly (single-writer, so no contention rejections).
#[allow(clippy::await_holding_lock)] // same serialization as above
#[tokio::test]
async fn events_pagination_accounts_for_ring_drops_exactly() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let collector = Collector::new();
    let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    tokio::spawn(serve_collector(listener, collector.clone()));

    let ring = obs::events();
    ring.clear(); // start from an empty ring; drop counter is lifetime
    let since = ring.last_seq();
    let dropped_before = ring.dropped();

    // Flood well past capacity from this one thread so eviction is
    // guaranteed and every drop is an eviction of one of *our* events.
    let flood = (ring.capacity() * 2) as u64;
    for i in 0..flood {
        pingmesh::obs::emit!(Info, "obs.smoke", "flood", "i" => i);
    }

    let resp = get(addr, &format!("/events?since={since}")).await;
    assert_eq!(resp.status, 200);
    let header = |name: &str| -> u64 {
        resp.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.parse().unwrap())
            .unwrap_or_else(|| panic!("missing header {name}"))
    };
    let last_seq = header("x-pingmesh-events-last-seq");
    let dropped = header("x-pingmesh-events-dropped");
    let returned = String::from_utf8(resp.body)
        .unwrap()
        .lines()
        .filter(|l| !l.is_empty())
        .count() as u64;

    let accepted = last_seq - since;
    assert_eq!(accepted, flood, "single writer: every push gets a seq");
    assert!(returned < flood, "flood must overflow the ring");
    assert_eq!(
        accepted - returned,
        dropped - dropped_before,
        "every event past `since` is either returned or accounted as dropped \
         (accepted {accepted}, returned {returned})"
    );

    // Pagination: a cursor at the new head returns nothing more, with the
    // same accounting headers.
    let resp = get(addr, &format!("/events?since={last_seq}")).await;
    assert_eq!(resp.status, 200);
    assert!(resp.body.is_empty(), "cursor at head returns no events");
}
