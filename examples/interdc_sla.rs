//! Inter-DC monitoring, QoS probing and VIP monitoring — the three §6.2
//! extensions, all enabled at once on a three-DC deployment.
//!
//! ```sh
//! cargo run --release --example interdc_sla
//! ```

use pingmesh::controller::GeneratorConfig;
use pingmesh::dsa::agg::{HistKey, LatencyScope, WindowAggregate};
use pingmesh::netsim::DcProfile;
use pingmesh::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh::types::{DcId, PodId, QosClass, SimDuration, SimTime};
use pingmesh::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn main() {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![
                DcSpec::tiny("US West"),
                DcSpec::tiny("Europe"),
                DcSpec::tiny("Asia"),
            ],
        })
        .expect("valid topology"),
    );

    // VIP monitoring: a load-balanced endpoint backed by pod 0's servers.
    let mut config = OrchestratorConfig {
        generator: GeneratorConfig {
            qos_low: true, // QoS monitoring: high + low priority classes
            ..GeneratorConfig::default()
        },
        ..OrchestratorConfig::default()
    };
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_west(), DcProfile::europe(), DcProfile::asia()],
        ServiceMap::new(),
        config.clone(),
    );
    // Register the VIP, then regenerate pinglists so probers target it.
    let dips: Vec<_> = topo.servers_in_pod(PodId(0)).collect();
    let vip = o.net_mut().vips_mut().register(dips).expect("vip");
    let vip_ip = o.net().state().vips().get(vip).unwrap().vip;
    config.generator.vip_targets = vec![(vip, vip_ip)];
    o.regenerate_pinglists(config.generator.clone());

    // Geography: one-way delays between the DCs.
    o.net_mut()
        .interdc_mut()
        .set(0, 1, SimDuration::from_millis(70)); // US West <-> Europe
    o.net_mut()
        .interdc_mut()
        .set(0, 2, SimDuration::from_millis(85)); // US West <-> Asia
    o.net_mut()
        .interdc_mut()
        .set(1, 2, SimDuration::from_millis(110)); // Europe <-> Asia

    println!(
        "3 DCs x {} servers; inter-DC + QoS + VIP monitoring enabled",
        topo.server_count() / 3
    );
    println!("running 2 virtual hours...");
    o.run_until(SimTime::ZERO + SimDuration::from_hours(2));

    let chunks = o
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, o.now());
    let agg = WindowAggregate::build(chunks.records());

    println!("\ninter-DC latency (selected probers, complete graph over DCs):");
    for dc in topo.dcs() {
        if let Some(h) = agg.syn_hist(dc, LatencyScope::InterDc) {
            println!(
                "  from {:<9} n={:<7} p50={} p99={}",
                topo.dc(dc).name,
                h.count(),
                h.p50().unwrap(),
                h.p99().unwrap()
            );
        }
    }

    println!("\nQoS classes (same fabric, separate tracking):");
    for qos in [QosClass::High, QosClass::Low] {
        if let Some(h) = agg.hists.get(&HistKey {
            dc: DcId(0),
            scope: LatencyScope::InterPod,
            payload: false,
            qos,
        }) {
            println!(
                "  {:<5} priority inter-pod: n={:<7} p50={} p99={}",
                qos,
                h.count(),
                h.p50().unwrap(),
                h.p99().unwrap()
            );
        }
    }

    // VIP availability: did probers reach DIPs through the VIP?
    let vip_probes: u64 = agg
        .pairs
        .iter()
        .filter(|(k, _)| topo.server(k.dst).pod == PodId(0) && topo.server(k.src).pod != PodId(0))
        .map(|(_, v)| v.total())
        .sum();
    println!("\nVIP monitoring: {vip_probes} probes landed on {vip} DIPs (pod0)");
    println!(
        "probes total: {}, alerts: {}",
        o.outputs().probes_run,
        o.outputs().alerts.len()
    );
}
