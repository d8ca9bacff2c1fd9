//! `pingmesh-agent` — the real agent daemon: responds to pings, fetches
//! its pinglist from the controller, probes its peers, uploads results to
//! the collector. The third piece of the operator CLI triple
//! (`pingmesh-controller`, `pingmesh-collector`, `pingmesh-agent`).
//!
//! ```text
//! pingmesh-agent --server ID --controller ADDR [--controller ADDR ...]
//!                --collector ADDR
//!                [--listen-echo ADDR] [--listen-http ADDR]
//!                [--topology FILE] [--poll-secs N]
//! ```
//!
//! `--controller` may be repeated: the agent round-robins its polls over
//! the replicas and fails over past dead ones, like the paper's SLB VIP.
//! Addresses in the pinglist are probed directly (production behaviour).
//! Each entry is probed at the interval its pinglist entry carries, never
//! faster than the hard-coded 10-second floor the agent clamps it to.
//!
//! Note: the daemon binds one echo port (default 8100, the high-priority
//! agent port). If the controller generates low-priority QoS entries
//! (port 8101), run a second responder on that port or disable
//! `--qos-low` on the controller.

use pingmesh::agent::real::{serve_echo, serve_http};
use pingmesh::realmode::agent_loop::{Addressing, RealAgent, RealAgentConfig};
use pingmesh::realmode::PeerDirectory;
use pingmesh::topology::{DcSpec, Topology, TopologySpec};
use pingmesh::types::ServerId;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    server: u32,
    controllers: Vec<SocketAddr>,
    collector: SocketAddr,
    listen_echo: String,
    listen_http: String,
    topology: Option<String>,
    poll_secs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut controllers = Vec::new();
    let mut collector = None;
    let mut listen_echo = "0.0.0.0:8100".to_string();
    let mut listen_http = "0.0.0.0:8180".to_string();
    let mut topology = None;
    let mut poll_secs = 600u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--server" => server = Some(value("--server")?.parse().map_err(|e| format!("{e}"))?),
            "--controller" => {
                controllers.push(value("--controller")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--collector" => {
                collector = Some(value("--collector")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--listen-echo" => listen_echo = value("--listen-echo")?,
            "--listen-http" => listen_http = value("--listen-http")?,
            "--topology" => topology = Some(value("--topology")?),
            "--poll-secs" => {
                poll_secs = value("--poll-secs")?.parse().map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: pingmesh-agent --server ID --controller ADDR \
                            [--controller ADDR ...] --collector ADDR \
                            [--listen-echo ADDR] [--listen-http ADDR] \
                            [--topology FILE] [--poll-secs N]"
                    .into());
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    let server = server.ok_or("--server is required")?;
    if controllers.is_empty() {
        return Err("--controller is required (repeat it for replicas)".into());
    }
    Ok(Args {
        server,
        controllers,
        collector: collector.ok_or("--collector is required")?,
        listen_echo,
        listen_http,
        topology,
        poll_secs,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    // The agent needs the topology to denormalize record scopes, exactly
    // like the production agent ships with the network graph.
    let spec = match &args.topology {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            TopologySpec::from_json(&text).unwrap_or_else(|e| {
                eprintln!("invalid topology spec: {e}");
                std::process::exit(2);
            })
        }
        None => TopologySpec {
            dcs: vec![DcSpec::medium("DC1")],
        },
    };
    let topo = Arc::new(Topology::build(spec).expect("validated above"));
    if args.server as usize >= topo.server_count() {
        eprintln!(
            "--server {} is outside the topology ({} servers)",
            args.server,
            topo.server_count()
        );
        std::process::exit(2);
    }

    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("runtime");
    rt.block_on(async {
        // The server part: respond to pings regardless of probing state
        // ("It will still react to pings though", §3.4.2).
        let echo = tokio::net::TcpListener::bind(&args.listen_echo)
            .await
            .unwrap_or_else(|e| {
                eprintln!("cannot bind {}: {e}", args.listen_echo);
                std::process::exit(2);
            });
        println!("echo responder on {}", echo.local_addr().expect("addr"));
        tokio::spawn(serve_echo(echo));
        let http = tokio::net::TcpListener::bind(&args.listen_http)
            .await
            .unwrap_or_else(|e| {
                eprintln!("cannot bind {}: {e}", args.listen_http);
                std::process::exit(2);
            });
        println!("http responder on {}", http.local_addr().expect("addr"));
        tokio::spawn(serve_http(http));

        // The client part: the always-on probe loop.
        let mut config = RealAgentConfig::with_controllers(
            ServerId(args.server),
            args.controllers.clone(),
            args.collector,
        );
        config.addressing = Addressing::Direct;
        let agent = RealAgent::new(config, topo, PeerDirectory::new());
        println!(
            "agent srv{} probing via controllers {:?} / collector {} (polls every {}s)",
            args.server, args.controllers, args.collector, args.poll_secs
        );
        let (_tx, rx) = tokio::sync::watch::channel(false);
        // Runs until killed; _tx is held so the channel stays open.
        let _agent = agent.run(Duration::from_secs(args.poll_secs), rx).await;
    });
}
