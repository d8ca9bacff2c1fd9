//! Integration tests for the observability layer: end-to-end metric and
//! event flow through a full simulated run, the instrumentation overhead
//! bound, and exact drop accounting in the event ring under concurrent
//! writers.

use pingmesh::controller::GeneratorConfig;
use pingmesh::netsim::DcProfile;
use pingmesh::obs;
use pingmesh::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh::types::{SimDuration, SimTime};
use pingmesh::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;
use std::time::Instant;

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

fn timed_run(minutes: u64) -> f64 {
    let mut o = tiny_orchestrator();
    let t0 = Instant::now();
    o.run_until(SimTime::ZERO + SimDuration::from_mins(minutes));
    t0.elapsed().as_secs_f64()
}

/// A full simulated run populates metrics from every layer of the stack.
#[test]
fn full_run_populates_cross_crate_metrics() {
    obs::set_enabled(true);
    let mut o = tiny_orchestrator();
    o.run_until(SimTime::ZERO + SimDuration::from_mins(30));

    let snap = obs::registry().snapshot();
    for name in [
        "pingmesh_core_events_total",
        "pingmesh_netsim_events_scheduled_total",
        "pingmesh_netsim_probes_total",
        "pingmesh_agent_probes_sent_total",
        "pingmesh_agent_uploads_started_total",
        "pingmesh_controller_generations_total",
        "pingmesh_controller_slb_fetches_total",
        "pingmesh_topology_builds_total",
    ] {
        let v = snap
            .counter(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(v > 0, "{name} stayed zero");
    }
    // dsa ingestion is labeled per stage.
    assert!(snap
        .samples
        .iter()
        .any(|(id, _)| id.name == "pingmesh_dsa_records_ingested_total"));
    // The pingmesh-types bridge gauges are registered and live.
    assert!(snap.gauge("pingmesh_types_histograms_created").unwrap() > 0.0);

    // Both exporters render the snapshot.
    let prom = obs::encode::snapshot_to_prometheus(&snap);
    assert!(prom.contains("pingmesh_core_events_total"));
    let json = obs::encode::snapshot_to_json(&snap);
    assert!(json.starts_with('{') && json.ends_with('}'));
}

/// ISSUE acceptance: a run with instrumentation enabled must complete
/// within a sane multiple of the disabled run. The bound is deliberately
/// loose (CI machines are noisy); that the disabled path allocates
/// nothing is pinned exactly by `tests/hot_path_allocs.rs`.
#[test]
fn instrumentation_overhead_is_bounded() {
    // Warm up both paths once (registry init, allocator warmup).
    obs::set_enabled(true);
    let _ = timed_run(2);
    obs::set_enabled(false);
    let _ = timed_run(2);

    obs::set_enabled(false);
    let disabled = timed_run(10).max(1e-3);
    obs::set_enabled(true);
    let enabled = timed_run(10).max(1e-3);

    let ratio = enabled / disabled;
    assert!(
        ratio < 3.0,
        "instrumented run took {ratio:.2}x the disabled run \
         (enabled {enabled:.3}s vs disabled {disabled:.3}s)"
    );
}

/// The ring's drop accounting is exact: across any number of concurrent
/// writers, every push either lands in the ring or increments the drop
/// counter — `pushes == len() + dropped()` at quiescence.
#[test]
fn ring_drop_counter_is_exact_under_concurrent_writers() {
    // Small ring so eviction and contention both actually happen.
    let ring = Arc::new(obs::EventRing::new(64));
    let threads = 8;
    let per_thread = 5_000u64;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let ev = obs::Event {
                        seq: 0,
                        wall_unix_ns: 0,
                        sim: None,
                        level: obs::Level::Info,
                        target: "test.ring",
                        name: "contended_push",
                        fields: vec![("thread", obs::Field::U64(t)), ("i", obs::Field::U64(i))],
                    };
                    ring.push(ev);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let pushes = threads * per_thread;
    let stored = ring.len() as u64;
    let dropped = ring.dropped();
    assert_eq!(
        pushes,
        stored + dropped,
        "drop accounting must be exact: {pushes} pushes, {stored} stored, {dropped} dropped"
    );
    // The ring is bounded: it can never hold more than its capacity.
    assert!(stored <= 64, "ring overflowed its capacity: {stored}");
    // With 40k pushes into 64 slots, drops must have happened — the test
    // would be vacuous otherwise.
    assert!(dropped > 0, "expected contention/eviction drops");
}

/// Sequence numbers from concurrent emitters are unique, so the
/// `/events?since=` cursor never skips or duplicates within one shard's
/// retained window.
#[test]
fn ring_sequence_numbers_are_unique() {
    let ring = Arc::new(obs::EventRing::new(1024));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let ev = obs::Event {
                        seq: 0,
                        wall_unix_ns: 0,
                        sim: Some(SimTime(7)),
                        level: obs::Level::Debug,
                        target: "test.ring",
                        name: "seq_probe",
                        fields: Vec::new(),
                    };
                    ring.push(ev);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let evs = ring.snapshot_since(0);
    let mut seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
    let before = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), before, "duplicate sequence numbers");
}
