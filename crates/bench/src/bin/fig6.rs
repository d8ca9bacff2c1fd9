//! Figure 6 — ToR switches with packet black-holes detected per day
//! (paper §5.1).
//!
//! "Figure 6 shows the number of ToR switches with black-holes the
//! algorithm detected. As we can see from the figure, the number of the
//! switches with packet black-holes decreases once algorithm began to
//! run. In our algorithm, we limit the algorithm to reload at most 20
//! switches per day. ... after a period of time, the number of switches
//! detected dropped to only several per day."
//!
//! Scenario: a backlog of ToRs with TCAM-corruption black-holes exists
//! when detection starts; a slow trickle of new corruption arrives. The
//! hourly black-hole job scores ToRs, the repair service reloads the
//! candidates under the 20-per-day budget, and reloading actually fixes
//! the fault in the simulated network — so detections decay exactly the
//! way the paper's did.

use pingmesh_bench::*;
use pingmesh_core::controller::GeneratorConfig;
use pingmesh_core::dsa::detect::blackhole::BlackholeConfig;
use pingmesh_core::netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh_core::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{SimDuration, SimTime, SwitchId};
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn main() {
    header("fig6", "ToR black-holes detected and reloaded per day");
    init_telemetry("fig6");
    let sim_days: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".into(),
                podsets: 8,
                pods_per_podset: 8,
                servers_per_pod: 4,
                leaves_per_podset: 2,
                spines: 8,
                borders: 2,
            }],
        })
        .expect("valid spec"),
    );
    let config = OrchestratorConfig {
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(60),
            intra_dc_interval: SimDuration::from_secs(600),
            ..GeneratorConfig::default()
        },
        ..OrchestratorConfig::default()
    };
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        config,
    );
    // Calibrate the detector for this fleet: the symptom needs at least
    // two black-holed peers, and 60% of a pod's servers must show it.
    o.pipeline_mut().blackhole.config = BlackholeConfig {
        score_threshold: 0.6,
        min_probes_per_pair: 2,
        min_reach_fraction: 0.2,
    };

    // Backlog: 30 ToRs with corrupted TCAM entries (2% of address-pair
    // space each) present before detection starts.
    let backlog = 30u32;
    let tor_count = topo.pod_count() as u32;
    for i in 0..backlog {
        let tor = SwitchId::tor((i * tor_count / backlog) % tor_count);
        o.net_mut().faults_mut().add_switch_fault(
            tor,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.02 },
                from: SimTime::ZERO,
                until: None,
            },
        );
    }
    // New corruption arrives at ~1.5 switches/day, offset from the
    // backlog set.
    let mut arrivals = Vec::new();
    let mut t = SimTime::ZERO + SimDuration::from_hours(20);
    let mut k = 1u32;
    while t < SimTime::ZERO + SimDuration::from_days(sim_days) {
        let tor = SwitchId::tor((k * 7 + 3) % tor_count);
        arrivals.push((t, tor));
        o.net_mut().faults_mut().add_switch_fault(
            tor,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.02 },
                from: t,
                until: None,
            },
        );
        t += SimDuration::from_hours(16);
        k += 1;
    }
    pingmesh_obs::emit!(Info, "bench.fig6", "scenario",
        "servers" => topo.server_count(), "tors" => tor_count,
        "backlog" => backlog, "arrivals" => arrivals.len(), "sim_days" => sim_days);

    o.run_until(SimTime::ZERO + SimDuration::from_days(sim_days));

    // Series: reloads per day (what fig6 plots: detected-and-actioned).
    let repair = o.repair();
    let points: Vec<(String, f64)> = (0..sim_days)
        .map(|d| (format!("day {d}"), repair.reloads_on_day(d) as f64))
        .collect();
    print_series(
        "ToR switches reloaded per day (cap: 20/day)",
        &points,
        "switches",
    );

    let total_reloads = repair.reload_log.len();
    let day0 = repair.reloads_on_day(0);
    let late_days_avg: f64 = (sim_days.saturating_sub(3)..sim_days)
        .map(|d| repair.reloads_on_day(d) as f64)
        .sum::<f64>()
        / 3.0;
    println!();
    compare_row("first-day reloads (cap)", "≤20", &day0.to_string());
    compare_row(
        "steady state (last 3 days avg)",
        "several/day",
        &format!("{late_days_avg:.1}"),
    );
    println!(
        "  total reloads: {total_reloads}, deferred-past-budget: {}",
        repair.deferred.len()
    );
    println!(
        "  escalations to Leaf/Spine: {}",
        o.outputs().escalations.len()
    );

    // Ground truth: after the run, how many ToRs still black-hole?
    let now = o.now();
    let still_faulty = topo
        .switches()
        .filter(|sw| {
            o.net()
                .state()
                .faults()
                .faults_on(*sw, now)
                .any(|f| matches!(f.kind, FaultKind::BlackholeIp { .. }))
        })
        .count();
    println!("  ground truth: {still_faulty} ToRs still black-holed at day {sim_days}");

    println!("\n--- shape checks ---");
    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        println!("  [{}] {what}", if cond { "ok" } else { "FAIL" });
        ok &= cond;
    };
    check("day-0 reloads within the 20/day budget", day0 <= 20);
    check("day-0 drains a large chunk of the backlog", day0 >= 10);
    check(
        "detections decay after the backlog drains (last-3-days avg < half of day 0)",
        late_days_avg < day0 as f64 / 2.0,
    );
    check(
        "backlog mostly repaired by the end",
        still_faulty <= (backlog as usize + arrivals.len()) / 3,
    );
    check(
        "customers stopped complaining: paper's end state is 'several per day'",
        late_days_avg <= 6.0,
    );
    finish_telemetry("fig6");
    if !ok {
        std::process::exit(1);
    }
}
