//! A complete Pingmesh deployment on localhost with real packets:
//! controller (HTTP pinglist service) + collector (HTTP record ingest) +
//! per-server TCP/HTTP responders + full agents — then the DSA pipeline
//! analyzes what was actually measured.
//!
//! ```sh
//! cargo run --release --example real_cluster
//! ```

use pingmesh::dsa::agg::WindowAggregate;
use pingmesh::realmode::LocalCluster;
use pingmesh::topology::TopologySpec;
use pingmesh::types::{ServerId, SimTime};
use std::time::Duration;

/// A schedule step longer than any interval the generator below assigns
/// (90 s: intra-DC payload): each step probes every installed entry once.
const STEP: Duration = Duration::from_secs(180);

#[tokio::main(flavor = "multi_thread", worker_threads = 2)]
async fn main() {
    let cluster = LocalCluster::start(
        TopologySpec::single_tiny(),
        pingmesh::controller::GeneratorConfig {
            payload_probes: true,
            ..Default::default()
        },
    )
    .await;
    let topo = cluster.topology().clone();
    println!(
        "localhost deployment: controller {}, collector {}, {} responder pairs",
        cluster.controller_addr(),
        cluster.collector_addr(),
        cluster.directory().len()
    );

    // Every server runs a real agent: fetch over HTTP, probe over TCP,
    // upload over HTTP. Three schedule steps each, every entry probed in
    // each.
    let mut total_probes = 0u64;
    for server in topo.servers() {
        let mut agent = cluster.agent(server);
        agent.poll_controller().await;
        for _ in 0..3 {
            agent.skip(STEP);
            total_probes += agent.probe_due().await as u64;
        }
        agent.flush(true).await;
    }
    let stats = cluster.collector().stats();
    println!(
        "\n{} real probes executed; collector stored {} records ({} logical bytes)",
        total_probes, stats.records, stats.logical_bytes
    );

    // Run the paper's analysis over the really-measured records.
    let store = cluster.collector().store().lock();
    let records: Vec<_> = store
        .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
        .records()
        .collect();
    drop(store);
    let agg = WindowAggregate::build(records.iter());

    println!("\nper-scope SLAs from real localhost RTTs:");
    for dc in topo.dcs() {
        let sla = &agg.per_dc[&dc];
        println!(
            "  {:<10} n={:<6} p50={} p99={} drop_rate={:.1e}",
            topo.dc(dc).name,
            sla.stats.successful(),
            sla.p50().unwrap(),
            sla.p99().unwrap(),
            sla.drop_rate()
        );
    }
    let s0 = &agg.per_server[&ServerId(0)];
    println!(
        "  srv0       n={:<6} p50={} p99={}",
        s0.stats.successful(),
        s0.p50().unwrap(),
        s0.p99().unwrap()
    );
    println!(
        "\npair coverage: {} (src,dst) pairs measured; payload vs SYN split: {} histogram groups",
        agg.pairs.len(),
        agg.hists.len()
    );
}
