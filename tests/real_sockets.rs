//! Real-socket integration: the controller web service and the agent's
//! TCP/HTTP probers exchanging actual packets over localhost.

use pingmesh::agent::real::{http_ping, serve_echo, serve_http, tcp_ping};
use pingmesh::controller::{
    fetch_pinglist, serve, GeneratorConfig, PinglistGenerator, PinglistSource, WebState,
};
use pingmesh::topology::{Topology, TopologySpec};
use pingmesh::types::{PingTarget, ProbeKind, ServerId};
use std::sync::Arc;
use std::time::Duration;
use tokio::net::TcpListener;

async fn controller() -> (std::net::SocketAddr, Arc<WebState>) {
    let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
    let generator = PinglistGenerator::new(GeneratorConfig {
        payload_probes: true,
        ..GeneratorConfig::default()
    });
    let state = Arc::new(WebState::new());
    state.set_pinglists(PinglistSource::new(topo.clone(), generator, 1));
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    tokio::spawn(serve(listener, state.clone()));
    (addr, state)
}

#[tokio::test]
async fn agent_fetches_pinglist_and_probes_for_real() {
    let (controller_addr, _state) = controller().await;

    // Fetch our pinglist over real HTTP.
    let pl = fetch_pinglist(controller_addr, ServerId(0))
        .await
        .expect("controller up")
        .expect("list exists");
    assert!(!pl.entries.is_empty());

    // One responder stands in for every peer.
    let echo = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let echo_addr = echo.local_addr().unwrap();
    tokio::spawn(serve_echo(echo));

    let mut syn = 0;
    let mut payload = 0;
    for entry in pl.entries.iter().take(30) {
        match entry.kind {
            ProbeKind::TcpSyn => {
                let r = tcp_ping(echo_addr, None, Duration::from_secs(2))
                    .await
                    .expect("syn ping works");
                assert!(r.connect_rtt < Duration::from_secs(1));
                syn += 1;
            }
            ProbeKind::TcpPayload(n) => {
                let data = vec![1u8; n as usize];
                let r = tcp_ping(echo_addr, Some(&data), Duration::from_secs(2))
                    .await
                    .expect("payload ping works");
                assert!(r.payload_rtt.is_some());
                payload += 1;
            }
            ProbeKind::Http => {}
        }
        // Ensure the entry refers to a real peer of the topology.
        match entry.target {
            PingTarget::Server { id, .. } => assert_ne!(id, ServerId(0)),
            PingTarget::Vip { .. } => {}
        }
    }
    assert!(syn > 0, "pinglist must contain SYN probes");
    assert!(payload > 0, "pinglist must contain payload probes");
}

#[tokio::test]
async fn clearing_pinglists_serves_the_stop_signal_over_http() {
    let (controller_addr, state) = controller().await;
    assert!(fetch_pinglist(controller_addr, ServerId(1))
        .await
        .unwrap()
        .is_some());
    state.clear_pinglists();
    // "controller up but no pinglist" — the agent's fail-closed trigger.
    assert!(fetch_pinglist(controller_addr, ServerId(1))
        .await
        .unwrap()
        .is_none());
}

#[tokio::test]
async fn http_ping_round_trips_against_the_agent_responder() {
    let l = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = l.local_addr().unwrap();
    tokio::spawn(serve_http(l));
    let rtt = http_ping(addr, Duration::from_secs(2)).await.unwrap();
    assert!(rtt < Duration::from_secs(1));
}

#[tokio::test]
async fn pinglist_xml_survives_the_wire_byte_for_byte() {
    let (controller_addr, _state) = controller().await;
    let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
    let generator = PinglistGenerator::new(GeneratorConfig {
        payload_probes: true,
        ..GeneratorConfig::default()
    });
    for s in [ServerId(0), ServerId(7), ServerId(31)] {
        let local = generator.generate_for(&topo, s, 1);
        let remote = fetch_pinglist(controller_addr, s)
            .await
            .unwrap()
            .expect("list");
        assert_eq!(local, remote, "server {s}");
    }
}
