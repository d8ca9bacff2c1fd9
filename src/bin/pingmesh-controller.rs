//! `pingmesh-controller` — the real controller daemon: loads (or writes)
//! a topology spec, runs the Pingmesh Generator, and serves Pinglist XML
//! over HTTP until interrupted.
//!
//! ```text
//! pingmesh-controller --listen 127.0.0.1:8080 [--topology FILE]
//!                     [--payload-probes] [--qos-low]
//! pingmesh-controller --write-default-topology FILE
//! ```

use pingmesh::controller::{serve, GeneratorConfig, PinglistGenerator, PinglistSource, WebState};
use pingmesh::topology::{DcSpec, Topology, TopologySpec};
use std::sync::Arc;

struct Args {
    listen: String,
    topology: Option<String>,
    payload_probes: bool,
    qos_low: bool,
    write_default: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:8080".into(),
        topology: None,
        payload_probes: false,
        qos_low: false,
        write_default: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => args.listen = it.next().ok_or("--listen expects ADDR")?,
            "--topology" => args.topology = Some(it.next().ok_or("--topology expects FILE")?),
            "--payload-probes" => args.payload_probes = true,
            "--qos-low" => args.qos_low = true,
            "--write-default-topology" => {
                args.write_default = Some(it.next().ok_or("--write-default-topology expects FILE")?)
            }
            "--help" | "-h" => {
                return Err(
                    "usage: pingmesh-controller --listen ADDR [--topology FILE] \
                            [--payload-probes] [--qos-low] | --write-default-topology FILE"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    if let Some(path) = args.write_default {
        let spec = TopologySpec {
            dcs: vec![DcSpec::medium("DC1")],
        };
        std::fs::write(&path, spec.to_json()).expect("write topology file");
        println!("wrote default topology spec to {path}");
        return;
    }

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
    let topo = Topology::build(spec).expect("validated above");

    let generator = PinglistGenerator::new(GeneratorConfig {
        payload_probes: args.payload_probes,
        qos_low: args.qos_low,
        ..GeneratorConfig::default()
    });
    let source = PinglistSource::new(Arc::new(topo), generator, 1);
    let (mut servers, mut max, mut total) = (0, 0, 0);
    for list in source.lists() {
        (servers, max, total) = (
            servers + 1,
            max.max(list.entries.len()),
            total + list.entries.len(),
        );
    }
    println!(
        "generated pinglists for {servers} servers (max {max} peers/server, {total} entries total)"
    );

    let state = Arc::new(WebState::new());
    state.set_pinglists(source);

    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("runtime");
    rt.block_on(async {
        let listener = tokio::net::TcpListener::bind(&args.listen)
            .await
            .unwrap_or_else(|e| {
                eprintln!("cannot bind {}: {e}", args.listen);
                std::process::exit(2);
            });
        println!(
            "serving Pinglist XML on http://{} (GET /pinglist/<server-id>, GET /health)",
            listener.local_addr().expect("addr")
        );
        serve(listener, state).await;
    });
}
