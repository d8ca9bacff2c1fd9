//! `sim_mesh`: the simulated pipeline over one 5,120-server data center,
//! run twice on identical input — `shards=1`, then `shards=nproc`. The
//! only workload where `topology`, `netsim`, `agent`, `core` and `par` do
//! most of the work.

use crate::report::RunResult;
use crate::{env, ns_per_call, sizes, stats, Ctx};
use pingmesh_agent::{AgentConfig, AgentFleet, ControllerPollOutcome};
use pingmesh_check::state_digest;
use pingmesh_controller::{GeneratorConfig, PinglistGenerator};
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use pingmesh_dsa::jobs::{JobKind, JobTick};
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_netsim::{CounterDelta, DcProfile, EventQueue};
use pingmesh_topology::{DcSpec, Router, ServiceMap, Topology, TopologySpec};
use pingmesh_types::{FiveTuple, PingTarget, ProbeOutcome, ProbeRecord, SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

fn spec() -> TopologySpec {
    TopologySpec {
        dcs: vec![DcSpec {
            name: "DC1".to_string(),
            podsets: sizes::SIM_PODSETS,
            pods_per_podset: sizes::SIM_PODS_PER_PODSET,
            servers_per_pod: sizes::SIM_SERVERS_PER_POD,
            leaves_per_podset: sizes::SIM_LEAVES_PER_PODSET,
            spines: sizes::SIM_SPINES,
            borders: sizes::SIM_BORDERS,
        }],
    }
}

fn generator_config() -> GeneratorConfig {
    GeneratorConfig {
        intra_pod_interval: SimDuration::from_secs(sizes::SIM_INTRA_POD_SECS),
        intra_dc_interval: SimDuration::from_secs(sizes::SIM_INTRA_DC_SECS),
        ..GeneratorConfig::default()
    }
}

/// Topology plus orchestrator (which generates the pinglists): everything
/// up to the first simulated event. Returns the build times too.
fn build(seed: u64, shards: usize) -> (Orchestrator, f64, f64) {
    let t0 = Instant::now();
    let topo = Arc::new(Topology::build(spec()).expect("valid spec"));
    let topo_s = t0.elapsed().as_secs_f64();
    let config = OrchestratorConfig {
        generator: generator_config(),
        seed,
        shards,
        ..OrchestratorConfig::default()
    };
    let o = Orchestrator::new(topo, vec![DcProfile::us_west()], ServiceMap::new(), config);
    (o, topo_s, t0.elapsed().as_secs_f64())
}

/// One sim-minute step of a traced run.
struct Step {
    wall_s: f64,
    probes: u64,
    stored: u64,
}

struct Engine {
    wall_s: f64,
    probes: u64,
    stored: u64,
    digest: u64,
    steps: Vec<Step>,
}

/// Runs `o` for `mins` simulated minutes: one `run_until` call untraced,
/// minute by minute with a span per step when traced.
fn drive(ctx: &mut Ctx, o: &mut Orchestrator, mins: u64, span: &'static str) -> Engine {
    let end = SimTime::ZERO + SimDuration::from_mins(mins);
    let mut steps = Vec::new();
    let t0 = Instant::now();
    if ctx.traced {
        for m in 1..=mins {
            let (p0, s0) = (o.outputs().probes_run, o.pipeline().store.record_count());
            let ((), ns) = ctx.tracer.time(span, m, || {
                o.run_until(SimTime::ZERO + SimDuration::from_mins(m))
            });
            steps.push(Step {
                wall_s: ns as f64 / 1e9,
                probes: o.outputs().probes_run - p0,
                stored: o.pipeline().store.record_count() - s0,
            });
        }
    } else {
        o.run_until(end);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Engine {
        wall_s,
        probes: o.outputs().probes_run,
        stored: o.pipeline().store.record_count(),
        digest: state_digest(o),
        steps,
    }
}

fn tuple_of(topo: &Topology, r: &ProbeRecord) -> FiveTuple {
    FiveTuple::tcp(topo.ip_of(r.src), r.src_port, topo.ip_of(r.dst), r.dst_port)
}

/// Replays every stored record through `NetState::probe_keyed`: the probe
/// is a pure function of (seed, five-tuple, launch time), so each replay
/// must reproduce the stored outcome. Returns (mismatches, ns per probe).
fn replay_probes(ctx: &mut Ctx, o: &Orchestrator, end: SimTime) -> (u64, f64) {
    let net = o.net().state();
    let topo = net.topology().clone();
    let seed = o.net().run_seed();
    let mut delta = CounterDelta::new();
    let mut mismatches = 0u64;
    let mut n = 0u64;
    let mut total_ns = 0u64;
    let chunks = o
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, end + SimDuration::from_mins(1));
    for (i, chunk) in chunks.iter().enumerate() {
        let ((), ns) = ctx.tracer.time("netsim.probe_keyed", i as u64, || {
            for r in chunk.iter() {
                let a = net.probe_keyed(
                    seed,
                    &mut delta,
                    r.src,
                    topo.ip_of(r.dst),
                    r.src_port,
                    r.dst_port,
                    r.kind,
                    r.qos,
                    r.ts,
                );
                if a.outcome != r.outcome || a.dst != Some(r.dst) {
                    mismatches += 1;
                }
            }
        });
        n += chunk.len() as u64;
        total_ns += ns;
    }
    (mismatches, total_ns as f64 / n.max(1) as f64)
}

/// `Router::resolve` over the stored records' five-tuples; ns per call.
fn replay_resolve(ctx: &mut Ctx, o: &Orchestrator, end: SimTime) -> f64 {
    let topo = o.net().topology().clone();
    let router = Router::new(&topo);
    let chunks = o
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, end + SimDuration::from_mins(1));
    let (mut n, mut total_ns) = (0u64, 0u64);
    for (i, chunk) in chunks.iter().enumerate() {
        let ((), ns) = ctx.tracer.time("topology.resolve", i as u64, || {
            for r in chunk.iter() {
                std::hint::black_box(router.resolve(r.src, r.dst, &tuple_of(&topo, r)));
            }
        });
        n += chunk.len() as u64;
        total_ns += ns;
    }
    total_ns as f64 / n.max(1) as f64
}

/// `CosmosStore::with_defaults().append` of the run's stored records, cut
/// into batches of the run's median upload size; ns per record.
fn replay_append(ctx: &mut Ctx, o: &Orchestrator, end: SimTime, batch: usize) -> f64 {
    let chunks = o
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, end + SimDuration::from_mins(1));
    let mut store = CosmosStore::with_defaults();
    let (mut n, mut total_ns) = (0u64, 0u64);
    for (i, chunk) in chunks.iter().enumerate() {
        let ((), ns) = ctx.tracer.time("dsa.append", i as u64, || {
            for b in chunk.chunks(batch.max(1)) {
                let t = b.iter().map(|r| r.ts).max().expect("non-empty");
                store.append(StreamName { dc: b[0].src_dc }, b, t);
            }
        });
        n += chunk.len() as u64;
        total_ns += ns;
    }
    total_ns as f64 / n.max(1) as f64
}

/// `EventQueue` pop + schedule at a steady depth; ns per event.
fn event_queue_ns(depth: usize) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime(i as u64 * 7_919 % 1_000_000), i as u32);
    }
    ns_per_call(1_000_000, |i| {
        let ev = q.pop().expect("steady depth");
        q.schedule(
            ev.time + SimDuration::from_micros(1_000_000 + i % 977),
            ev.event,
        );
    })
}

/// One `AgentFleet` driven wake by wake through `due_probes`,
/// `record_outcome` and the upload calls with a canned outcome. The wake
/// order is recorded on an untimed pass (it needs a queue) and replayed
/// on a fresh fleet, so the timed pass holds fleet work only. Returns
/// (ns per probe, median upload batch records).
fn fleet_cost(ctx: &mut Ctx, topo: &Arc<Topology>, mins: u64) -> (f64, f64) {
    let lists = PinglistGenerator::new(generator_config()).generate_all_threads(topo, 1, 1);
    let end = SimTime::ZERO + SimDuration::from_mins(mins);
    let new_fleet = || {
        let mut fleet = AgentFleet::new(topo.clone(), AgentConfig::default());
        for s in topo.servers() {
            let idx = fleet.push_server(s);
            let pl = lists.lists[s.index()].clone();
            fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl), SimTime::ZERO);
        }
        fleet
    };
    let canned = ProbeOutcome::Success {
        rtt: SimDuration::from_micros(250),
    };
    // One wake; returns the probes it launched.
    let wake = |fleet: &mut AgentFleet, idx: usize, now: SimTime, batches: &mut Vec<f64>| -> u64 {
        let due = fleet.due_probes(idx, now);
        let n = due.len() as u64;
        for p in &due {
            let dst = match p.entry.target {
                PingTarget::Server { id, .. } => Some(id),
                PingTarget::Vip { .. } => None,
            };
            fleet.record_outcome(idx, p, dst, canned, now);
        }
        fleet.recycle_due(due);
        if fleet.upload_due(idx, now) {
            if let Some(batch) = fleet.begin_upload(idx) {
                batches.push(batch.len() as f64);
                fleet.on_upload_result(idx, true);
                fleet.recycle_batch(idx, batch);
            }
        }
        n
    };

    let mut batches: Vec<f64> = Vec::new();
    let mut order: Vec<(SimTime, u32)> = Vec::new();
    let mut fleet = new_fleet();
    let mut q: EventQueue<u32> = EventQueue::new();
    for idx in 0..fleet.len() {
        if let Some(t) = fleet.next_wakeup(idx) {
            q.schedule(t, idx as u32);
        }
    }
    while let Some(ev) = q.pop() {
        if ev.time > end {
            break;
        }
        order.push((ev.time, ev.event));
        wake(&mut fleet, ev.event as usize, ev.time, &mut batches);
        if let Some(t) = fleet.next_wakeup(ev.event as usize) {
            q.schedule(t.max(ev.time), ev.event);
        }
    }
    drop((fleet, q));

    let mut fleet = new_fleet();
    batches.clear();
    let mut probes = 0u64;
    let ((), ns) = ctx.tracer.time("agent.fleet", 0, || {
        for &(t, idx) in &order {
            probes += wake(&mut fleet, idx as usize, t, &mut batches);
        }
    });
    let p50 = if batches.is_empty() {
        0.0
    } else {
        stats::median(&batches)
    };
    (ns as f64 / probes.max(1) as f64, p50)
}

fn counter(snap: &pingmesh_obs::Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let mut res = RunResult::new("sim_mesh", ctx.traced, ctx.seed);
    let mins = ctx.scaled(sizes::SIM_MINUTES, 12);
    let end = SimTime::ZERO + SimDuration::from_mins(mins);
    let nproc = pingmesh_par::max_threads();

    // Set-up, several times; the last build is the serial engine's.
    let mut setups = Vec::new();
    let mut topo_ms = Vec::new();
    let mut serial = None;
    for _ in 0..sizes::SETUP_REPEATS {
        drop(serial.take());
        let (o, topo_s, total_s) = build(ctx.seed, 1);
        setups.push(total_s);
        topo_ms.push(topo_s * 1e3);
        serial = Some(o);
    }
    let mut o = serial.expect("at least one set-up");
    res.set("setup_s", stats::median(&setups));

    // Serial engine.
    let before = pingmesh_obs::registry().snapshot();
    let (u0, s0) = env::cpu_seconds();
    let one = drive(ctx, &mut o, mins, "core.run_until");
    let (u1, s1) = env::cpu_seconds();
    let after = pingmesh_obs::registry().snapshot();

    // Output check: every stored record replays to its stored outcome.
    let (mismatches, probe_keyed_ns) = replay_probes(ctx, &o, end);
    res.check(
        format!(
            "{} stored records replay to their stored outcome through probe_keyed",
            one.stored
        ),
        mismatches == 0,
    );
    res.attempted = one.probes;
    res.failed = mismatches;

    if ctx.traced {
        let cpu = (u1 - u0) + (s1 - s0);
        res.set(
            "core.sys_time_share",
            if cpu > 0.0 { (s1 - s0) / cpu } else { 0.0 },
        );
        // Registry counts of the serial run alone (the replays below use
        // queues and probes of their own).
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        let probes = delta("pingmesh_netsim_probes_total").max(1) as f64;
        let events_per_probe = delta("pingmesh_netsim_events_popped_total") as f64 / probes;
        res.set("netsim.events_per_probe", events_per_probe);
        res.set(
            "netsim.timeout_share",
            delta("pingmesh_netsim_probe_timeouts_total") as f64 / probes,
        );
        res.set("topology.build_ms", stats::median(&topo_ms));
        layers(
            ctx,
            &mut res,
            &mut o,
            &one,
            end,
            probe_keyed_ns,
            events_per_probe,
        );
    }
    drop(o);

    // Sharded engine on identical input.
    let (mut o, _, _) = build(ctx.seed, nproc);
    let shards = o.shard_count();
    let many = drive(ctx, &mut o, mins, "core.run_until.sharded");
    drop(o);
    res.check(
        format!(
            "state digest at shards={shards} equals shards=1 ({:#018x})",
            one.digest
        ),
        many.digest == one.digest && many.probes == one.probes && many.stored == one.stored,
    );

    let serial_rate = one.probes as f64 / one.wall_s;
    let sharded_rate = many.probes as f64 / many.wall_s;
    res.set("throughput_per_s", serial_rate);
    res.set("latency_ms", one.wall_s * 1e3 / mins as f64);
    res.set("peak_rss_mb", env::peak_rss_mb());
    res.set("sim_probes_per_s", serial_rate);
    res.set("sim_sharded_probes_per_s", sharded_rate);
    res.set("failed_share", res.failed_share());
    if ctx.traced {
        // Base: the serial engine's wall clock over the sharded one's.
        res.set("par.sharded_speedup", one.wall_s / many.wall_s);
    }
    res.exact("servers", spec().server_count());
    res.exact("sim_minutes", mins);
    res.exact("shards", shards);
    res.exact("probes", one.probes);
    res.exact("stored_records", one.stored);
    res.exact("state_digest", format!("{:#018x}", one.digest));
    res
}

/// The traced run's per-layer figures, from replays on the serial
/// engine's finished store and from its minute steps.
fn layers(
    ctx: &mut Ctx,
    res: &mut RunResult,
    o: &mut Orchestrator,
    one: &Engine,
    end: SimTime,
    probe_keyed_ns: f64,
    events_per_probe: f64,
) {
    let topo = o.net().topology().clone();
    let resolve_ns = replay_resolve(ctx, o, end);
    res.set("topology.resolve_ns", resolve_ns);
    res.set("netsim.probe_keyed_ns", probe_keyed_ns);
    // A probe resolves its forward and its reverse path.
    res.set(
        "netsim.probe_ns",
        (probe_keyed_ns - 2.0 * resolve_ns).max(0.0),
    );
    // Mean depth: one poll and one wake chain per server.
    let event_ns = event_queue_ns(2 * topo.server_count());
    res.set("netsim.event_ns", event_ns);

    let generator = PinglistGenerator::new(generator_config());
    let (set, ns) = ctx.tracer.time("controller.generate", 0, || {
        generator.generate_all_threads(&topo, 1, 1)
    });
    res.set(
        "controller.generate_servers_per_s",
        topo.server_count() as f64 / (ns as f64 / 1e9),
    );
    res.set(
        "controller.entries_per_server",
        set.total_entries() as f64 / topo.server_count() as f64,
    );
    drop(set);

    let (fleet_ns, batch_p50) = fleet_cost(ctx, &topo, 11.min(one.steps.len() as u64));
    res.set("agent.fleet_ns_per_probe", fleet_ns);
    res.set("agent.upload_batch_records_p50", batch_p50);

    let append_ns = replay_append(ctx, o, end, batch_p50.max(1.0) as usize);
    res.set("dsa.append_ns_per_record", append_ns);
    res.set(
        "dsa.bytes_per_record",
        o.pipeline().store.logical_bytes() as f64 / one.stored.max(1) as f64,
    );

    // Steps in which the store did not grow hold probe work only; the
    // others also carry the uploads.
    let quiet: Vec<&Step> = one.steps.iter().filter(|s| s.stored == 0).collect();
    let busy: Vec<&Step> = one.steps.iter().filter(|s| s.stored > 0).collect();
    let sum = |v: &[&Step], f: &dyn Fn(&Step) -> f64| v.iter().map(|s| f(s)).sum::<f64>();
    let probe_us = sum(&quiet, &|s| s.wall_s) * 1e6 / sum(&quiet, &|s| s.probes as f64).max(1.0);
    res.set("core.probe_step_us_per_probe", probe_us);
    let busy_upload_us =
        sum(&busy, &|s| s.wall_s) * 1e6 - probe_us * sum(&busy, &|s| s.probes as f64);
    res.set(
        "core.upload_step_us_per_record",
        (busy_upload_us / sum(&busy, &|s| s.stored as f64).max(1.0)).max(0.0),
    );
    // 1 − Σ replayed children ÷ wall. Children: per probe, the netsim
    // probe (which holds both resolves), its events and the fleet's
    // bookkeeping; per stored record, the append.
    let children_s = (one.probes as f64
        * (probe_keyed_ns + events_per_probe * event_ns + fleet_ns)
        + one.stored as f64 * append_ns)
        / 1e9;
    res.set("core.unattributed_share", 1.0 - children_s / one.wall_s);

    // The finished store's ticks, run after the digest was taken.
    let w = SimDuration::from_mins(10);
    let tick = |kind, to| JobTick {
        kind,
        window_start: SimTime::ZERO,
        window_end: SimTime::ZERO + to,
    };
    let (_, ns) = ctx.tracer.time("dsa.run_tick", 10, || {
        o.pipeline_mut().run_tick(tick(JobKind::TenMin, w))
    });
    res.set("dsa.tick_10min_ms", ns as f64 / 1e6);
    let (_, ns) = ctx.tracer.time("dsa.run_tick", 60, || {
        o.pipeline_mut()
            .run_tick(tick(JobKind::Hourly, SimDuration::from_hours(1)))
    });
    res.set("dsa.tick_hourly_ms", ns as f64 / 1e6);
}
