//! Criterion micro-benchmarks over the performance-critical paths:
//! pinglist generation, ECMP path resolution, histogram operations,
//! simulated probe execution, window aggregation, agent scheduling, and
//! the observability layer itself (including proof that the disabled
//! event path performs zero heap allocations).
//!
//! Run with `cargo bench -p pingmesh-bench`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pingmesh_core::agent::{AgentConfig, AgentFleet, ControllerPollOutcome};
use pingmesh_core::controller::{GeneratorConfig, PinglistGenerator};
use pingmesh_core::dsa::agg::WindowAggregate;
use pingmesh_core::netsim::{DcProfile, SimNet};
use pingmesh_core::topology::{DcSpec, Router, Topology, TopologySpec};
use pingmesh_core::types::{
    DcId, FiveTuple, LatencyHistogram, PingTarget, Pinglist, PinglistEntry, PodId, PodsetId,
    ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every heap allocation so the disabled-instrumentation bench can
/// assert the probe hot path stays allocation-free.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn medium_topo() -> Arc<Topology> {
    Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec::medium("DC1"), DcSpec::medium("DC2")],
        })
        .unwrap(),
    )
}

fn bench_pinglist_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("pinglist_generation");
    for (label, podsets, pods, servers) in [("800srv", 5u32, 8u32, 10u32), ("8k_srv", 10, 20, 40)] {
        let topo = Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC".into(),
                podsets,
                pods_per_podset: pods,
                servers_per_pod: servers,
                leaves_per_podset: 4,
                spines: 16,
                borders: 2,
            }],
        })
        .unwrap();
        let generator = PinglistGenerator::new(GeneratorConfig::default());
        g.throughput(Throughput::Elements(topo.server_count() as u64));
        g.bench_function(label, |b| {
            b.iter(|| generator.generate_all(&topo, 1));
        });
    }
    g.finish();
}

fn bench_ecmp_resolution(c: &mut Criterion) {
    let topo = medium_topo();
    let router = Router::new(&topo);
    let a = topo.servers_in_pod(PodId(0)).next().unwrap();
    let b = topo.servers_in_pod(PodId(20)).next().unwrap();
    let src_ip = topo.ip_of(a);
    let dst_ip = topo.ip_of(b);
    let mut port = 32_768u16;
    c.bench_function("ecmp_resolve_cross_podset", |bch| {
        bch.iter(|| {
            port = port.wrapping_add(1).max(32_768);
            let tuple = FiveTuple::tcp(src_ip, port, dst_ip, 8_100);
            router.resolve(a, b, &tuple)
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("latency_histogram");
    g.bench_function("record", |b| {
        let mut h = LatencyHistogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDuration::from_micros(100 + (v >> 48)));
        })
    });
    g.bench_function("quantile_p999", |b| {
        let mut h = LatencyHistogram::new();
        let mut v = 1u64;
        for _ in 0..1_000_000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDuration::from_micros(100 + (v >> 44)));
        }
        b.iter(|| h.quantile(0.999))
    });
    g.finish();
}

fn bench_simnet_probe(c: &mut Criterion) {
    let topo = medium_topo();
    let mut net = SimNet::new(topo.clone(), vec![DcProfile::us_west()], 5);
    let a = topo.servers_in_pod(PodId(0)).next().unwrap();
    let b = topo.servers_in_pod(PodId(20)).next().unwrap();
    let ip = topo.ip_of(b);
    let mut port = 32_768u16;
    let mut t = 0u64;
    c.bench_function("simnet_probe_cross_podset", |bch| {
        bch.iter(|| {
            port = port.wrapping_add(1).max(32_768);
            t += 1_000;
            net.probe(a, ip, port, 8_100, ProbeKind::TcpSyn, SimTime(t))
        })
    });
}

fn bench_window_aggregation(c: &mut Criterion) {
    let topo = medium_topo();
    let records: Vec<ProbeRecord> = (0..100_000u64)
        .map(|i| {
            let src = ServerId((i % 800) as u32);
            let dst = ServerId(((i + 13) % 800) as u32);
            let s = topo.server(src);
            let d = topo.server(dst);
            ProbeRecord {
                ts: SimTime(i),
                src,
                dst,
                src_pod: s.pod,
                dst_pod: d.pod,
                src_podset: s.podset,
                dst_podset: d.podset,
                src_dc: s.dc,
                dst_dc: d.dc,
                kind: ProbeKind::TcpSyn,
                qos: QosClass::High,
                src_port: 40_000,
                dst_port: 8_100,
                outcome: ProbeOutcome::Success {
                    rtt: SimDuration::from_micros(200 + i % 300),
                },
            }
        })
        .collect();
    let mut g = c.benchmark_group("dsa_window_aggregation");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.sample_size(20);
    g.bench_function("build_100k_records", |b| {
        b.iter(|| WindowAggregate::build(records.iter()))
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let topo = medium_topo();
    let generator = PinglistGenerator::new(GeneratorConfig::default());
    let pl = generator.generate_for(&topo, ServerId(0), 1);
    c.bench_function("scheduler_tick_2k_peers", |b| {
        b.iter_batched(
            || {
                let mut fleet = AgentFleet::new(topo.clone(), AgentConfig::default());
                let me = fleet.push_server(ServerId(0));
                fleet.on_controller_poll(
                    me,
                    ControllerPollOutcome::Pinglist(pl.clone()),
                    SimTime::ZERO,
                );
                (fleet, me)
            },
            |(mut fleet, me)| {
                // One wake: sweep the due arena, emit the due probes. The
                // fleet rides out with them so its drop is not timed.
                let t = fleet.next_wakeup(me).unwrap();
                let due = fleet.due_probes(me, t);
                (fleet, due)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_obs(c: &mut Criterion) {
    // Acceptance check, not a timing: with instrumentation disabled, the
    // emit + span paths must not touch the heap at all. The counting
    // allocator sees every allocation in the process, so a zero delta over
    // 10k iterations is proof.
    pingmesh_obs::set_enabled(false);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        pingmesh_obs::emit!(Info, "bench.micro", "disabled_emit", "i" => i);
        let _guard = pingmesh_obs::span("bench.micro", "disabled_span");
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "disabled observability path allocated {allocs} times"
    );

    c.bench_function("obs_emit_disabled", |b| {
        b.iter(|| pingmesh_obs::emit!(Info, "bench.micro", "disabled_emit", "n" => 1u64))
    });
    pingmesh_obs::set_enabled(true);
    c.bench_function("obs_emit_enabled", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            pingmesh_obs::emit!(Debug, "bench.micro", "enabled_emit", "i" => i);
        })
    });
    let ctr = pingmesh_obs::registry().counter("pingmesh_bench_micro_total");
    c.bench_function("obs_counter_inc", |b| b.iter(|| ctr.inc()));

    // Tracing acceptance, same shape as the disabled-emit proof: with a
    // trace armed, pushing an UNSAMPLED record through `on_probe` must
    // not touch the heap — the id recompute is stack-only FNV and the
    // armed-table miss takes no ownership. This is the per-probe cost
    // every agent pays on every record, sampled or not.
    pingmesh_obs::trace::reset();
    pingmesh_obs::trace::set_sample_mod(1);
    let lists = vec![Pinglist {
        server: ServerId(1),
        generation: 1,
        entries: vec![PinglistEntry {
            target: PingTarget::Server {
                id: ServerId(2),
                ip: std::net::Ipv4Addr::new(10, 0, 0, 2),
            },
            port: 80,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            interval: SimDuration::from_secs(10),
        }],
    }];
    pingmesh_obs::trace::arm_from_pinglists(&lists, Some(SimTime::ZERO));
    pingmesh_obs::trace::set_sample_mod(1024);
    let unsampled = ProbeRecord {
        ts: SimTime(1),
        src: ServerId(7),
        dst: ServerId(8),
        src_pod: PodId(0),
        dst_pod: PodId(1),
        src_podset: PodsetId(0),
        dst_podset: PodsetId(0),
        src_dc: DcId(0),
        dst_dc: DcId(0),
        kind: ProbeKind::TcpSyn,
        qos: QosClass::High,
        src_port: 40_000,
        dst_port: 80,
        outcome: ProbeOutcome::Success {
            rtt: SimDuration::from_micros(400),
        },
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        pingmesh_obs::trace::on_probe(&unsampled);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "unsampled trace path allocated {allocs} times in 10k probes"
    );
    c.bench_function("obs_trace_on_probe_unsampled", |b| {
        b.iter(|| pingmesh_obs::trace::on_probe(&unsampled))
    });
    pingmesh_obs::trace::reset();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets =
        bench_pinglist_generation,
        bench_ecmp_resolution,
        bench_histogram,
        bench_simnet_probe,
        bench_window_aggregation,
        bench_scheduler,
        bench_obs
}
criterion_main!(benches);
