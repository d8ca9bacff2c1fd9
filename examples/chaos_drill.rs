//! A narrated chaos drill over real sockets: kill, stall, and restore
//! the Pingmesh control plane while a fleet of agents rides it out.
//!
//! ```sh
//! cargo run --release --example chaos_drill
//! ```
//!
//! Two controller replicas and the collector sit behind fault-injecting
//! proxies. The drill walks the paper's failure model (§3.4.2, §3.5):
//! replica failover, bounded upload retries, fleet fail-close on total
//! controller loss, and resume on restore — with the watchdog and the
//! metrics registry narrating every transition.

use pingmesh::controller::GeneratorConfig;
use pingmesh::realmode::{ClusterOptions, LocalCluster, RealAgent, RealWatchdog, Toxic};
use pingmesh::topology::TopologySpec;
use pingmesh::types::ServerId;
use std::time::Duration;

const CALL_DEADLINE: Duration = Duration::from_millis(300);
/// A schedule step longer than any interval the default generator
/// assigns: after `skip(STEP)` every installed entry is due once.
const STEP: Duration = Duration::from_secs(180);

fn counter(name: &str) -> u64 {
    pingmesh::obs::registry().counter(name).get()
}

async fn report(watchdog: &mut RealWatchdog, cluster: &LocalCluster, agents: &[RealAgent]) {
    let refs: Vec<&RealAgent> = agents.iter().collect();
    let findings = watchdog.check(cluster, &refs).await;
    if findings.is_empty() {
        println!("  watchdog: healthy");
    } else {
        for f in findings {
            println!("  watchdog: {f}");
        }
    }
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let cluster = LocalCluster::start_with(
        TopologySpec::single_tiny(),
        GeneratorConfig::default(),
        ClusterOptions {
            controller_replicas: 2,
            chaos: true,
            seed: 42,
            ..ClusterOptions::default()
        },
    )
    .await;
    println!(
        "chaos cluster: controller replicas {:?}, collector {}",
        cluster.controller_addrs(),
        cluster.collector_addr()
    );

    let mut agents: Vec<RealAgent> = [ServerId(0), ServerId(3), ServerId(7)]
        .into_iter()
        .map(|s| cluster.agent(s))
        .collect();
    for a in &mut agents {
        a.config_mut().call_deadline = CALL_DEADLINE;
    }
    let mut watchdog = RealWatchdog::new(Duration::from_secs(60));
    watchdog.call_deadline = CALL_DEADLINE;

    println!("\n── phase 1: healthy baseline ──");
    for a in &mut agents {
        a.poll_controller().await;
        a.skip(STEP);
        let sent = a.probe_due().await;
        a.flush(true).await;
        println!(
            "  agent {}: {} probes, {} peers",
            a.server().0,
            sent,
            a.view().peer_count()
        );
    }
    println!(
        "  collector: {} records",
        cluster.collector().stats().records
    );
    report(&mut watchdog, &cluster, &agents).await;

    println!("\n── phase 2: kill controller replica 0 ──");
    cluster.controller_chaos(0).set_toxic(Toxic::Refuse);
    for a in &mut agents {
        a.poll_controller().await;
        a.poll_controller().await;
        println!(
            "  agent {}: stopped={} peers={}",
            a.server().0,
            a.is_stopped(),
            a.view().peer_count()
        );
    }
    println!(
        "  failovers so far: {}",
        counter("pingmesh_realmode_failovers_total")
    );
    report(&mut watchdog, &cluster, &agents).await;

    println!("\n── phase 3: stall the collector ──");
    cluster.collector_chaos().set_toxic(Toxic::Stall);
    let a = &mut agents[0];
    a.skip(STEP);
    a.probe_due().await;
    a.flush(true).await;
    println!(
        "  agent {}: discarded {} records after {} retries (timeouts {})",
        a.server().0,
        a.view().discarded_total(),
        counter("pingmesh_realmode_retries_total"),
        counter("pingmesh_realmode_timeouts_total")
    );
    report(&mut watchdog, &cluster, &agents).await;

    println!("\n── phase 4: stall every controller replica ──");
    cluster.controller_chaos(0).set_toxic(Toxic::Stall);
    cluster.controller_chaos(1).set_toxic(Toxic::Stall);
    for a in &mut agents {
        for _ in 0..3 {
            a.poll_controller().await;
        }
        println!("  agent {}: stopped={}", a.server().0, a.is_stopped());
    }
    report(&mut watchdog, &cluster, &agents).await;

    println!("\n── phase 5: restore everything ──");
    cluster.controller_chaos(0).set_toxic(Toxic::Pass);
    cluster.controller_chaos(1).set_toxic(Toxic::Pass);
    cluster.collector_chaos().set_toxic(Toxic::Pass);
    for a in &mut agents {
        a.poll_controller().await;
        a.skip(STEP);
        let sent = a.probe_due().await;
        a.flush(true).await;
        println!(
            "  agent {}: stopped={} probed {} peers again",
            a.server().0,
            a.is_stopped(),
            sent
        );
    }
    println!(
        "  collector: {} records; resumes={} fail_closes={}",
        cluster.collector().stats().records,
        counter("pingmesh_realmode_resumes_total"),
        counter("pingmesh_realmode_fail_closed_transitions_total")
    );
    report(&mut watchdog, &cluster, &agents).await;
    println!("\ndrill complete: the fleet failed over, failed closed, and resumed.");
}
