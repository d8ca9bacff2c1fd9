//! Black-hole hunt: inject a TCAM-corrupted ToR, watch Pingmesh find it
//! and the repair service reload it — the paper's §5.1 loop, end to end.
//!
//! ```sh
//! cargo run --release --example blackhole_hunt
//! ```

use pingmesh::controller::GeneratorConfig;
use pingmesh::netsim::{ActiveFault, CounterDelta, DcProfile, FaultKind, ProbeAttempt};
use pingmesh::topology::{ServiceMap, Topology, TopologySpec};
use pingmesh::types::{PodId, ProbeKind, QosClass, ServerId, SimDuration, SimTime};
use pingmesh::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

/// One side probe from `a` to `b` at `t`, through the network's keyed
/// probe path; its switch counters count like any agent probe's.
fn probe(
    o: &mut Orchestrator,
    a: ServerId,
    b: ServerId,
    src_port: u16,
    t: SimTime,
) -> ProbeAttempt {
    let mut delta = CounterDelta::new();
    let net = o.net();
    let attempt = net.state().probe_keyed(
        net.run_seed(),
        &mut delta,
        a,
        net.topology().ip_of(b),
        src_port,
        8_100,
        ProbeKind::TcpSyn,
        QosClass::High,
        t,
    );
    o.net_mut().merge_counters(&delta);
    attempt
}

fn main() {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![pingmesh::topology::DcSpec {
                name: "DC1".into(),
                podsets: 4,
                pods_per_podset: 8,
                servers_per_pod: 4,
                leaves_per_podset: 2,
                spines: 4,
                borders: 2,
            }],
        })
        .expect("valid topology"),
    );
    let config = OrchestratorConfig {
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(10),
            intra_dc_interval: SimDuration::from_secs(30),
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

    // The villain: pod 5's ToR corrupts 10% of its TCAM address-pair
    // space. Packets matching the corrupted entries vanish without a
    // trace in the switch counters.
    let bad_tor = topo.tor_of_pod(PodId(5));
    o.net_mut().faults_mut().add_switch_fault(
        bad_tor,
        ActiveFault {
            kind: FaultKind::BlackholeIp { frac: 0.10 },
            from: SimTime::ZERO,
            until: None,
        },
    );
    println!("injected: {bad_tor} black-holes 10% of (src,dst) address pairs");

    // Show the symptom the way the paper describes it: "server A cannot
    // talk to server B, but it can talk to servers C and D just fine."
    let a = topo.servers_in_pod(PodId(5)).next().unwrap();
    println!("\nsymptom check from {a} (under the bad ToR):");
    let mut shown = 0;
    for pod in [0u32, 1, 2, 3, 6, 9, 12] {
        let b = topo.servers_in_pod(PodId(pod)).next().unwrap();
        let outcome = probe(&mut o, a, b, 40_000, SimTime(1));
        println!(
            "  {a} -> {b}: {}",
            match outcome.outcome.rtt() {
                Some(rtt) => format!("ok ({rtt})"),
                None => "UNREACHABLE (deterministically)".to_string(),
            }
        );
        shown += 1;
        if shown >= 7 {
            break;
        }
    }

    // Let the system run: agents probe, the hourly black-hole job scores
    // ToRs, the repair service reloads the candidate.
    println!("\nrunning until the detection + repair loop fires...");
    o.run_until(SimTime::ZERO + SimDuration::from_hours(2));

    for (t, tor, score) in &o.outputs().blackhole_candidates {
        println!("  {t}: candidate {tor} (score {score:.2})");
    }
    for (t, sw) in &o.repair().reload_log {
        println!("  {t}: RELOADED {sw}");
    }
    let fixed = !o
        .net()
        .state()
        .faults()
        .faults_on(bad_tor, o.now())
        .any(|f| matches!(f.kind, FaultKind::BlackholeIp { .. }));
    println!(
        "\nresult: bad ToR {} {}",
        bad_tor,
        if fixed {
            "was detected and the reload cleared the black-hole ✔"
        } else {
            "is still black-holing ✘"
        }
    );
    // After our customers' complaints stopped (paper: "our customers did
    // not complain about packet black-holes anymore"), probes flow again:
    let b = topo.nth_server_of_pod(PodId(2), 0).expect("peer exists");
    let now = o.now();
    let after = probe(&mut o, a, b, 41_000, now);
    println!("post-repair probe {a} -> {b}: {:?}", after.outcome);
}
