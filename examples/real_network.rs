//! Real-socket mode: the Controller serves Pinglist XML over real HTTP,
//! agents fetch their lists and launch real TCP SYN / payload / HTTP
//! pings over localhost — the paper's data path with actual packets.
//!
//! ```sh
//! cargo run --release --example real_network
//! ```

use pingmesh::agent::real::{http_ping, serve_echo, serve_http, tcp_ping};
use pingmesh::controller::{
    fetch_pinglist, serve, GeneratorConfig, PinglistGenerator, PinglistSource, WebState,
};
use pingmesh::topology::{Topology, TopologySpec};
use pingmesh::types::{LatencyHistogram, ProbeKind, ServerId, SimDuration};
use std::sync::Arc;
use std::time::Duration;
use tokio::net::TcpListener;

#[tokio::main(flavor = "current_thread")]
async fn main() {
    // --- Controller: generate pinglists, serve them over real HTTP. ---
    let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).expect("topology"));
    let generator = PinglistGenerator::new(GeneratorConfig {
        payload_probes: true,
        ..GeneratorConfig::default()
    });
    let state = Arc::new(WebState::new());
    state.set_pinglists(PinglistSource::new(topo.clone(), generator, 1));
    let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
    let controller_addr = listener.local_addr().expect("addr");
    tokio::spawn(serve(listener, state));
    println!("controller web service listening on http://{controller_addr}");

    // --- Responders: each "server" runs the agent's server part. ---
    // All tiny-topology servers share this host, so each gets its own
    // local port pair (TCP echo + HTTP).
    let mut echo_addrs = Vec::new();
    let mut http_addrs = Vec::new();
    for _ in topo.servers() {
        let l = TcpListener::bind("127.0.0.1:0").await.expect("bind echo");
        echo_addrs.push(l.local_addr().unwrap());
        tokio::spawn(serve_echo(l));
        let l = TcpListener::bind("127.0.0.1:0").await.expect("bind http");
        http_addrs.push(l.local_addr().unwrap());
        tokio::spawn(serve_http(l));
    }
    println!("{} agent responders up (TCP echo + HTTP)", echo_addrs.len());

    // --- Agent side: fetch our pinglist over HTTP, then probe. ---
    let me = ServerId(0);
    let pinglist = fetch_pinglist(controller_addr, me)
        .await
        .expect("controller reachable")
        .expect("pinglist exists");
    println!(
        "\nagent {me}: fetched pinglist generation {} with {} peers over HTTP",
        pinglist.generation,
        pinglist.entries.len()
    );

    let mut syn_hist = LatencyHistogram::new();
    let mut payload_hist = LatencyHistogram::new();
    let timeout = Duration::from_secs(2);
    let mut http_rtts = Vec::new();
    for (i, entry) in pinglist.entries.iter().enumerate() {
        // Map the simulated peer address onto its localhost responder.
        let peer = match entry.target {
            pingmesh::types::PingTarget::Server { id, .. } => id,
            pingmesh::types::PingTarget::Vip { .. } => continue,
        };
        match entry.kind {
            ProbeKind::TcpSyn => {
                let r = tcp_ping(echo_addrs[peer.index()], None, timeout)
                    .await
                    .expect("syn ping");
                syn_hist.record(SimDuration::from_micros(r.connect_rtt.as_micros() as u64));
            }
            ProbeKind::TcpPayload(bytes) => {
                let payload = vec![0x5Au8; bytes as usize];
                let r = tcp_ping(echo_addrs[peer.index()], Some(&payload), timeout)
                    .await
                    .expect("payload ping");
                payload_hist.record(SimDuration::from_micros(
                    r.payload_rtt.expect("payload echoed").as_micros() as u64,
                ));
            }
            ProbeKind::Http => {
                let rtt = http_ping(http_addrs[peer.index()], timeout)
                    .await
                    .expect("http ping");
                http_rtts.push(rtt);
            }
        }
        if i >= 200 {
            break;
        }
    }

    let show = |label: &str, h: &LatencyHistogram| {
        if h.is_empty() {
            return;
        }
        println!(
            "  {label:<18} n={:<4} p50={} p99={} max={}",
            h.count(),
            h.p50().unwrap(),
            h.p99().unwrap(),
            h.max().unwrap()
        );
    };
    println!("\nreal localhost RTTs:");
    show("TCP SYN", &syn_hist);
    show("TCP payload echo", &payload_hist);
    if !http_rtts.is_empty() {
        println!("  HTTP ping          n={}", http_rtts.len());
    }
    println!("\nevery probe above used a fresh connection and ephemeral port, as §3.4.1 requires.");
}
