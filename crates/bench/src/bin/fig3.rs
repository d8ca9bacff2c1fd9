//! Figure 3 — CPU and memory usage of the Pingmesh Agent (paper §3.4.2).
//!
//! "During the measurement, this Pingmesh Agent was actively probing
//! around 2500 servers. ... The average memory footprint is less than
//! 45MB, and the average CPU usage is 0.26%."
//!
//! Two measurements, mirroring the paper's two panels:
//!
//! * **(a) CPU** — real tokio TCP probes against localhost responders:
//!   process CPU time per probe, projected to the utilization of an
//!   agent probing 2500 peers at the production cadence.
//! * **(b) memory** — the agent-side state for a 2500-peer pinglist
//!   (schedule + result buffer + counters + capped local log), measured
//!   as the process RSS delta across building it.

use pingmesh_bench::*;
use pingmesh_core::agent::real::{serve_echo, tcp_ping};
use pingmesh_core::agent::{AgentConfig, AgentFleet, ControllerPollOutcome};
use pingmesh_core::controller::{GeneratorConfig, PinglistGenerator};
use pingmesh_core::topology::{DcSpec, Topology, TopologySpec};
use pingmesh_core::types::{ProbeOutcome, ServerId, SimDuration, SimTime};
use std::sync::Arc;
use std::time::Duration;

/// Reads (utime + stime) of this process in clock ticks from /proc.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat.split_whitespace().collect();
    let utime: u64 = fields.get(13).and_then(|s| s.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(14).and_then(|s| s.parse().ok()).unwrap_or(0);
    utime + stime
}

fn measure_cpu() {
    println!("--- (a) CPU usage ---");
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("runtime");
    let probes: usize = 20_000;
    let (elapsed, cpu_us_per_probe) = rt.block_on(async {
        // A bank of local echo responders stands in for the peers.
        let mut addrs = Vec::new();
        for _ in 0..64 {
            let l = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            addrs.push(l.local_addr().unwrap());
            tokio::spawn(serve_echo(l));
        }
        // Warm up.
        for &a in addrs.iter().take(8) {
            let _ = tcp_ping(a, None, Duration::from_secs(2)).await;
        }
        let ticks0 = cpu_ticks();
        let t0 = std::time::Instant::now();
        // Moderate concurrency, like the paper's agent spreading probes.
        let mut inflight = tokio::task::JoinSet::new();
        for i in 0..probes {
            if inflight.len() >= 32 {
                let _ = inflight.join_next().await;
            }
            let addr = addrs[i % addrs.len()];
            inflight.spawn(async move { tcp_ping(addr, None, Duration::from_secs(2)).await });
        }
        while inflight.join_next().await.is_some() {}
        let elapsed = t0.elapsed();
        let ticks = cpu_ticks() - ticks0;
        let hz = 100.0; // USER_HZ
        let cpu_us = ticks as f64 / hz * 1e6;
        (elapsed, cpu_us / probes as f64)
    });
    println!(
        "  {probes} real TCP SYN probes in {elapsed:?} ({:.0} probes/s)",
        probes as f64 / elapsed.as_secs_f64()
    );
    println!("  CPU time per probe: {cpu_us_per_probe:.1} us");
    // Paper cadence: 2500 peers; at the default intervals (10s intra-pod
    // for ~40 of them, 30s for the rest) an agent launches ~86 probes/s.
    let probes_per_s = 40.0 / 10.0 + 2460.0 / 30.0;
    let cpu_pct = probes_per_s * cpu_us_per_probe / 1e6 * 100.0;
    compare_row(
        "projected CPU at 2500 peers (~86 probes/s)",
        "0.26%",
        &format!("{cpu_pct:.2}%"),
    );
    let ok = cpu_pct < 5.0;
    println!(
        "  [{}] agent CPU cost is a fraction of one core at production cadence",
        if ok { "ok" } else { "FAIL" }
    );
    if !ok {
        std::process::exit(1);
    }
}

fn measure_memory() {
    println!("\n--- (b) memory usage ---");
    // A topology big enough to hand one server a ~2500-entry pinglist:
    // 2500 ToRs in the DC (the intra-DC rule contributes one peer per
    // other ToR), 26 servers each = 65k servers.
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".into(),
                podsets: 50,
                pods_per_podset: 50,
                servers_per_pod: 26,
                leaves_per_podset: 4,
                spines: 64,
                borders: 2,
            }],
        })
        .expect("valid spec"),
    );
    let generator = PinglistGenerator::new(GeneratorConfig::default());
    let pl = generator.generate_for(&topo, ServerId(0), 1);
    println!("  pinglist size: {} peers", pl.entries.len());

    let rss0 = rss_bytes();
    let mut fleet = AgentFleet::new(topo.clone(), AgentConfig::default());
    let me = fleet.push_server(ServerId(0));
    fleet.on_controller_poll(me, ControllerPollOutcome::Pinglist(pl), SimTime::ZERO);
    // One full 10-minute buffering interval of results at the 2500-peer
    // cadence (~86 probes/s → ~52k records) — the worst-case in-memory
    // state right before an upload.
    let mut now = SimTime::ZERO;
    let mut recorded = 0u64;
    while now < SimTime::ZERO + SimDuration::from_mins(10) {
        let Some(t) = fleet.next_wakeup(me) else {
            break;
        };
        now = t;
        for due in fleet.due_probes(me, now) {
            fleet.record_outcome(
                me,
                &due,
                Some(ServerId(1)),
                ProbeOutcome::Success {
                    rtt: SimDuration::from_micros(250),
                },
                now,
            );
            recorded += 1;
        }
    }
    fleet.flush_metrics();
    let rss1 = rss_bytes();
    let delta_mb = (rss1.saturating_sub(rss0)) as f64 / 1e6;
    println!("  records buffered in 10 min: {recorded}");
    compare_row(
        "agent state for 2500 peers + 10min of results",
        "<45MB",
        &format!("{delta_mb:.1}MB"),
    );
    let ok = delta_mb < 45.0 && fleet.view(me).peer_count() > 2_000;
    println!(
        "  [{}] agent fits the paper's 45MB envelope",
        if ok { "ok" } else { "FAIL" }
    );
    if !ok {
        std::process::exit(1);
    }
}

fn main() {
    header("fig3", "CPU and memory usage of the Pingmesh Agent");
    init_telemetry("fig3");
    measure_cpu();
    measure_memory();
    finish_telemetry("fig3");
}
