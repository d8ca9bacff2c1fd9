//! Ablation 2 — the drop-rate heuristic's design choices (paper §4.2).
//!
//! The paper counts a 9-second connect as **one** drop ("successive
//! packet drops within a connection are not independent") and divides by
//! **successful** probes only ("for failed probes, we cannot
//! differentiate between packet drops and receiving server failure").
//! This ablation measures, against simulator ground truth, how the
//! estimate degrades when either choice is flipped:
//!
//! * counting 9 s probes as two drops over-counts under bursty loss;
//! * putting all probes in the denominator under-counts whenever some
//!   destinations are down for non-network reasons.

use pingmesh_bench::*;
use pingmesh_core::netsim::{CounterDelta, DcProfile, SimNet};
use pingmesh_core::topology::{DcSpec, Topology, TopologySpec};
use pingmesh_core::types::counters::{classify_rtt, RttClass};
use pingmesh_core::types::{PodId, PodsetId, ProbeKind, QosClass, SimTime};
use std::sync::Arc;

#[derive(Default)]
struct Counts {
    ok: u64,
    d3: u64,
    d9: u64,
    failed: u64,
}

impl Counts {
    fn paper(&self) -> f64 {
        (self.d3 + self.d9) as f64 / (self.ok + self.d3 + self.d9).max(1) as f64
    }
    fn double_count_9s(&self) -> f64 {
        (self.d3 + 2 * self.d9) as f64 / (self.ok + self.d3 + self.d9).max(1) as f64
    }
    fn all_probe_denominator(&self) -> f64 {
        (self.d3 + self.d9) as f64 / (self.ok + self.d3 + self.d9 + self.failed).max(1) as f64
    }
}

fn run(net: &SimNet, probes: u32) -> Counts {
    let topo = net.topology().clone();
    let a = topo.servers_in_pod(PodId(0)).next().unwrap();
    let b = topo.servers_in_pod(PodId(4)).next().unwrap();
    let ip = topo.ip_of(b);
    let mut c = Counts::default();
    let mut delta = CounterDelta::new();
    let mut rtts = Vec::new();
    for i in 0..probes {
        let r = net.state().probe_keyed(
            net.run_seed(),
            &mut delta,
            a,
            ip,
            (32_768 + (i % 28_000)) as u16,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(i as u64 * 1_000),
        );
        match r.outcome.rtt() {
            Some(rtt) => {
                rtts.push(rtt);
                match classify_rtt(rtt) {
                    RttClass::Normal => c.ok += 1,
                    RttClass::OneDrop => c.d3 += 1,
                    RttClass::TwoDrops => c.d9 += 1,
                }
            }
            None => c.failed += 1,
        }
    }
    net.flush_probe_metrics(u64::from(probes), c.failed, &rtts);
    c
}

fn main() {
    header(
        "ablation_droprate",
        "Drop-rate heuristic: 9s = one drop, successful-only denominator",
    );
    init_telemetry("ablation_droprate");
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec::tiny("DC1")],
        })
        .expect("valid spec"),
    );

    // Scenario A: bursty loss — a spine drops 2% of packets, and retries
    // correlate (burst_correlation). True per-connection first-loss rate
    // is what SLA tracking wants.
    println!("--- scenario A: bursty fabric loss (2% on every spine) ---");
    let mut profile = DcProfile::ideal();
    // Realistic burst correlation: a retry is 25% likely to die if the
    // first attempt died. (At exactly 0.5 the two estimators coincide by
    // algebra: (1-c)(1+2c) = 1.)
    profile.burst_correlation = 0.25;
    profile.drops.spine = 0.02;
    let net = SimNet::new(topo.clone(), vec![profile], 11);
    let c = run(&net, 400_000);
    // Ground truth: each direction crosses 1 spine; first-attempt loss
    // probability = 1 - (1-p)^2 per connection.
    let truth = 1.0 - (1.0f64 - 0.02).powi(2);
    compare_row("ground-truth first-loss rate", &format!("{truth:.2e}"), "");
    compare_row(
        "paper heuristic (9s = 1 drop)",
        "",
        &format!("{:.2e}", c.paper()),
    );
    compare_row(
        "variant: 9s counted as 2 drops",
        "",
        &format!("{:.2e}", c.double_count_9s()),
    );
    let err_paper = 100.0 * (c.paper() - truth).abs() / truth;
    let err_double = 100.0 * (c.double_count_9s() - truth).abs() / truth;
    println!("  relative error: paper {err_paper:.1}% vs double-count {err_double:.1}%",);
    let a_ok = err_paper <= err_double + 1e-9;
    println!(
        "  [{}] counting a 9s connect once is at least as accurate under bursty loss",
        if a_ok { "ok" } else { "FAIL" }
    );

    // Scenario B: a dead destination podset — failed probes say nothing
    // about the network.
    println!("\n--- scenario B: destination podset down (server failures, not network) ---");
    let mut profile = DcProfile::ideal();
    profile.drops.spine = 0.005;
    let mut net = SimNet::new(topo.clone(), vec![profile], 13);
    // The probed pod's podset loses power halfway through.
    let b = topo.servers_in_pod(PodId(4)).next().unwrap();
    let podset_b = topo.server(b).podset;
    net.faults_mut()
        .set_podset_down(podset_b, SimTime(200_000_000), None);
    let _ = PodsetId(0);
    let c = run(&net, 400_000);
    let truth = 1.0 - (1.0f64 - 0.005).powi(2);
    compare_row(
        "ground-truth network loss rate",
        &format!("{truth:.2e}"),
        "",
    );
    compare_row(
        "paper heuristic (successful-only)",
        "",
        &format!("{:.2e}", c.paper()),
    );
    compare_row(
        "variant: all probes in denominator",
        "",
        &format!("{:.2e}", c.all_probe_denominator()),
    );
    let err_paper = 100.0 * (c.paper() - truth).abs() / truth;
    let err_all = 100.0 * (c.all_probe_denominator() - truth).abs() / truth;
    println!("  relative error: paper {err_paper:.1}% vs all-probes {err_all:.1}%");
    let b_ok = err_paper < err_all;
    println!(
        "  [{}] successful-only denominator is immune to dead-server pollution",
        if b_ok { "ok" } else { "FAIL" }
    );

    finish_telemetry("ablation_droprate");
    if !(a_ok && b_ok) {
        std::process::exit(1);
    }
}
