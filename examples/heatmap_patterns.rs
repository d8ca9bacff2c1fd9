//! Renders the four canonical latency patterns of the paper's Figure 8
//! side by side, with the automatic classifier's verdicts.
//!
//! ```sh
//! cargo run --release --example heatmap_patterns
//! ```

use pingmesh::controller::GeneratorConfig;
use pingmesh::dsa::agg::WindowAggregate;
use pingmesh::dsa::viz::{describe_pattern, render_ansi};
use pingmesh::dsa::{classify_pattern, HeatmapMatrix};
use pingmesh::netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh::types::{DcId, PodsetId, SimDuration, SimTime};
use pingmesh::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn fresh() -> Orchestrator {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".into(),
                podsets: 5,
                pods_per_podset: 4,
                servers_per_pod: 4,
                leaves_per_podset: 2,
                spines: 4,
                borders: 2,
            }],
        })
        .expect("valid topology"),
    );
    Orchestrator::new(
        topo,
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        OrchestratorConfig {
            generator: GeneratorConfig {
                intra_pod_interval: SimDuration::from_secs(10),
                intra_dc_interval: SimDuration::from_secs(15),
                ..GeneratorConfig::default()
            },
            // Raw patterns: no reloads, no drains, no pinglist surgery.
            auto_mitigate: false,
            ..OrchestratorConfig::default()
        },
    )
}

fn show(mut o: Orchestrator, label: &str) {
    o.run_until(SimTime::ZERO + SimDuration::from_mins(40));
    let chunks = o
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, o.now());
    let agg = WindowAggregate::build(chunks.records());
    let m = HeatmapMatrix::from_aggregate(&agg, o.net().topology(), DcId(0));
    println!("--- {label} ---");
    print!("{}", render_ansi(&m));
    println!("verdict: {}\n", describe_pattern(classify_pattern(&m)));
    assert!(
        o.mitigation().transitions().is_empty() && o.excluded_podsets().is_empty(),
        "nothing may clean up under the figure"
    );
}

fn main() {
    show(fresh(), "(a) normal");

    let mut o = fresh();
    o.net_mut()
        .faults_mut()
        .set_podset_down(PodsetId(2), SimTime::ZERO, None);
    show(o, "(b) podset down");

    let mut o = fresh();
    let leaves: Vec<_> = o.net().topology().leaves_of_podset(PodsetId(1)).collect();
    for leaf in leaves {
        o.net_mut().faults_mut().add_switch_fault(
            leaf,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 0.08 },
                from: SimTime::ZERO,
                until: None,
            },
        );
    }
    show(o, "(c) podset failure");

    let mut o = fresh();
    let spine = o.net().topology().spines_of_dc(DcId(0)).next().unwrap();
    o.net_mut().faults_mut().add_switch_fault(
        spine,
        ActiveFault {
            kind: FaultKind::SilentRandomDrop { prob: 0.20 },
            from: SimTime::ZERO,
            until: None,
        },
    );
    show(o, "(d) spine failure");
}
