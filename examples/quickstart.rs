//! Quickstart: stand up a complete Pingmesh deployment over a simulated
//! data center, let it run for an hour of virtual time, and read the
//! results the way an operator would.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pingmesh::dsa::agg::WindowAggregate;
use pingmesh::dsa::viz::render_ansi;
use pingmesh::dsa::{HeatmapMatrix, ScopeKey};
use pingmesh::netsim::DcProfile;
use pingmesh::topology::{ServiceMap, Topology, TopologySpec};
use pingmesh::types::{DcId, SimDuration, SimTime};
use pingmesh::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn main() {
    // 1. Describe the deployment: one DC, default shape (see DcSpec for
    //    podset / pod / server fan-out).
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![pingmesh::topology::DcSpec::medium("DC1 (demo)")],
        })
        .expect("valid topology"),
    );
    println!(
        "deployment: {} servers in {} pods / {} podsets",
        topo.server_count(),
        topo.pod_count(),
        topo.podset_count()
    );

    // 2. A service to track SLAs for: every 3rd server hosts "search".
    let mut services = ServiceMap::new();
    let search = services
        .register("search", topo.servers_in_dc(DcId(0)).step_by(3))
        .expect("service");

    // 3. Wire everything: controller cluster + one agent per server +
    //    simulated network + DSA pipeline, and run one virtual hour.
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        services,
        OrchestratorConfig::default(),
    );
    println!("running 1 virtual hour of always-on probing...");
    o.run_until(SimTime::ZERO + SimDuration::from_hours(1));
    println!(
        "probes executed: {}, records stored: {}",
        o.outputs().probes_run,
        o.pipeline().store.record_count()
    );

    // 4. Read the network SLA like the paper's portal: DC-wide and
    //    per-service, from the results database.
    let dc_row = o
        .pipeline()
        .db
        .latest(ScopeKey::Dc(DcId(0)))
        .expect("DC SLA row");
    println!(
        "\nDC SLA      : P50 {}us  P99 {}us  drop rate {:.1e}  ({} probes)",
        dc_row.p50_us, dc_row.p99_us, dc_row.drop_rate, dc_row.samples
    );
    let svc_row = o
        .pipeline()
        .db
        .latest(ScopeKey::Service(search))
        .expect("service SLA row");
    println!(
        "search SLA  : P50 {}us  P99 {}us  drop rate {:.1e}  ({} probes)",
        svc_row.p50_us, svc_row.p99_us, svc_row.drop_rate, svc_row.samples
    );

    // 5. The visualization: podset-pair P99 heatmap (paper Figure 8).
    let chunks = o
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, o.now());
    let agg = WindowAggregate::build(chunks.records());
    let matrix = HeatmapMatrix::from_aggregate(&agg, &topo, DcId(0));
    println!("\n{}", render_ansi(&matrix));

    // 6. Alerts? (There should be none on a healthy network.)
    println!(
        "alerts raised: {}",
        o.outputs().alerts.iter().filter(|a| a.raised).count()
    );
}
