//! Paper-scale simulation bench: servers vs wall-clock per sim-minute,
//! serial engine vs sharded engine, recorded as JSON.
//!
//! The sharded engine partitions the fleet by podset and runs the shards
//! with scoped threads between barriers, each shard agent by agent; agent
//! hot state lives in
//! struct-of-arrays arenas, and a wake merges per-cadence due rings, so it
//! costs O(probes due) however long the pinglists grow. This binary
//! drives full deployments at increasing fleet sizes — up to the paper's
//! 100k-server regime sampled at 50k+ — and measures wall-clock per
//! simulated minute on both engines. Every sharded run's observable
//! state (store contents, SLA rows, outputs, fleet ledger) is digested
//! and compared against the serial run: the two must match bit for bit,
//! at any shard count. Bytes are recorded beside milliseconds: each
//! point's resident set (`VmRSS`) is read while its serial engine is still
//! alive, and divided by the fleet size and by the pinglist entries the
//! agents hold (`entries`, `bytes_per_entry`), and each point records the
//! serial engine's wall time per probe (`serial_ns_per_probe`).
//!
//! Probe cadence is turned down from the paper's 10s/30s defaults to
//! 120s/600s so a 50k-server point holds ~20M probes rather than
//! hundreds of millions; the per-probe work is identical, so the
//! servers-vs-wall-clock shape is preserved.
//!
//! Usage: `cargo run --release -p pingmesh-bench --bin scale [--smoke]
//! [--check] [--out PATH]`. The full run sweeps 5k→50k servers and
//! writes `BENCH_scale.json` at the repo root; `--smoke` runs the 5k
//! point only and writes `target/BENCH_scale.smoke.json`. `--check`
//! exits non-zero if any sharded run diverges from its serial twin, or if
//! a serial digest differs from the `state_digest` that the committed
//! `BENCH_scale.json` records for the same fleet size: the sharded twin
//! alone cannot catch a change that shifts both engines alike. It also
//! fails if the 5,120-server point holds more than
//! [`BYTES_PER_ENTRY_CEILING`] resident bytes per installed pinglist
//! entry, so a second copy of the pinglists (a controller holding every
//! list, at 32 B an entry) cannot come back unnoticed.

use pingmesh_bench::{header, rss_bytes};
use pingmesh_check::state_digest;
use pingmesh_core::controller::GeneratorConfig;
use pingmesh_core::netsim::DcProfile;
use pingmesh_core::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{SimDuration, SimTime};
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Most resident bytes per installed pinglist entry `--check` accepts at
/// the 5,120-server point: 78 measured (2 cores) plus 10 %.
const BYTES_PER_ENTRY_CEILING: u64 = 86;

/// The committed curve, read before a full run overwrites it.
const RECORDED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");

/// `servers` → serial `state_digest` of every point the committed curve
/// records.
fn recorded_digests() -> BTreeMap<u64, String> {
    let text = std::fs::read_to_string(RECORDED).expect("read the committed BENCH_scale.json");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCH_scale.json is JSON");
    doc["points"]
        .as_array()
        .expect("BENCH_scale.json has points")
        .iter()
        .filter_map(|p| {
            Some((
                p["servers"].as_u64()?,
                p["state_digest"].as_str()?.to_string(),
            ))
        })
        .collect()
}

struct Args {
    smoke: bool,
    check: bool,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        check: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--out" => args.out = it.next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One fleet size on the curve.
struct Point {
    podsets: u32,
    pods_per_podset: u32,
    servers_per_pod: u32,
}

impl Point {
    fn servers(&self) -> u64 {
        u64::from(self.podsets) * u64::from(self.pods_per_podset) * u64::from(self.servers_per_pod)
    }
}

/// Builds one deployment of the given shape. The generator cadence and
/// the seed are fixed across the whole curve so points differ only in
/// fleet size (and engines only in shard count).
fn build(p: &Point, shards: usize) -> Orchestrator {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".to_string(),
                podsets: p.podsets,
                pods_per_podset: p.pods_per_podset,
                servers_per_pod: p.servers_per_pod,
                leaves_per_podset: 4,
                spines: 8,
                borders: 2,
            }],
        })
        .expect("valid spec"),
    );
    let config = OrchestratorConfig {
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(120),
            intra_dc_interval: SimDuration::from_secs(600),
            ..GeneratorConfig::default()
        },
        seed: 42,
        shards,
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(topo, vec![DcProfile::us_west()], ServiceMap::new(), config)
}

struct Measured {
    wall_ms: f64,
    ms_per_sim_min: f64,
    probes: u64,
    records: u64,
    /// Pinglist entries installed across the fleet.
    entries: u64,
    digest: u64,
    shards: usize,
    /// `VmRSS` at the end of the run, the engine still alive.
    rss_bytes: u64,
}

fn run_point(p: &Point, shards: usize, sim_mins: u64) -> Measured {
    let mut o = build(p, shards);
    let start = Instant::now();
    o.run_until(SimTime::ZERO + SimDuration::from_mins(sim_mins));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Measured {
        wall_ms,
        ms_per_sim_min: wall_ms / sim_mins as f64,
        probes: o.outputs().probes_run,
        records: o.pipeline().store.record_count(),
        entries: o
            .net()
            .topology()
            .servers()
            .map(|s| o.agent(s).peer_count() as u64)
            .sum(),
        digest: state_digest(&o),
        shards: o.shard_count(),
        rss_bytes: rss_bytes(),
    }
}

fn main() {
    let args = parse_args();
    let threads = pingmesh_par::max_threads();
    header(
        "scale",
        if args.smoke {
            "sharded-engine scale curve (smoke)"
        } else {
            "sharded-engine scale curve"
        },
    );
    println!("  threads available: {threads}");

    // 5,120 / 12,800 / 25,600 / 51,200 servers. Shapes keep pods sized
    // so per-server pinglists stay in the few-hundred-entry range the
    // paper describes (every pod peer + one server per other ToR).
    let curve: &[Point] = if args.smoke {
        &[Point {
            podsets: 8,
            pods_per_podset: 8,
            servers_per_pod: 80,
        }]
    } else {
        &[
            Point {
                podsets: 8,
                pods_per_podset: 8,
                servers_per_pod: 80,
            },
            Point {
                podsets: 8,
                pods_per_podset: 10,
                servers_per_pod: 160,
            },
            Point {
                podsets: 16,
                pods_per_podset: 10,
                servers_per_pod: 160,
            },
            Point {
                podsets: 16,
                pods_per_podset: 16,
                servers_per_pod: 200,
            },
        ]
    };
    let sim_mins: u64 = 3;
    let recorded = if args.check {
        recorded_digests()
    } else {
        BTreeMap::new()
    };

    let mut rows = Vec::new();
    let mut all_match = true;
    let mut all_as_recorded = true;
    let mut within_bytes = true;
    for p in curve {
        let serial = run_point(p, 1, sim_mins);
        let sharded = run_point(p, p.podsets as usize, sim_mins);
        let bit_identical = sharded.digest == serial.digest
            && sharded.probes == serial.probes
            && sharded.records == serial.records;
        all_match &= bit_identical;
        let digest = format!("{:#018x}", serial.digest);
        let as_recorded = recorded.get(&p.servers()).is_none_or(|d| *d == digest);
        if !as_recorded {
            println!(
                "  {} servers: serial digest {digest} differs from the committed {}",
                p.servers(),
                recorded[&p.servers()]
            );
        }
        all_as_recorded &= as_recorded;
        let speedup = serial.wall_ms / sharded.wall_ms.max(1e-6);
        let ns_per_probe = serial.wall_ms * 1e6 / serial.probes.max(1) as f64;
        let rss_mb = serial.rss_bytes as f64 / (1024.0 * 1024.0);
        let rss_per_server = serial.rss_bytes / p.servers();
        let bytes_per_entry = serial.rss_bytes / serial.entries.max(1);
        within_bytes &= p.servers() != 5_120 || bytes_per_entry <= BYTES_PER_ENTRY_CEILING;
        println!(
            "  {:>6} servers   serial {:>8.0} ms ({:>7.0} ms/sim-min, {:.0} ns/probe, rss {:.0} MB = {} B/server = {} B/entry)   {}-shard {:>8.0} ms ({:>7.0} ms/sim-min)   speedup {:.2}x   {} probes   {}",
            p.servers(),
            serial.wall_ms,
            serial.ms_per_sim_min,
            ns_per_probe,
            rss_mb,
            rss_per_server,
            bytes_per_entry,
            sharded.shards,
            sharded.wall_ms,
            sharded.ms_per_sim_min,
            speedup,
            serial.probes,
            if bit_identical { "bit-identical" } else { "DIVERGED" },
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"servers\": {},\n",
                "      \"podsets\": {},\n",
                "      \"sim_minutes\": {},\n",
                "      \"probes\": {},\n",
                "      \"records_stored\": {},\n",
                "      \"serial_wall_ms\": {:.0},\n",
                "      \"serial_ms_per_sim_min\": {:.0},\n",
                "      \"serial_ns_per_probe\": {:.0},\n",
                "      \"rss_mb\": {:.1},\n",
                "      \"rss_bytes_per_server\": {},\n",
                "      \"entries\": {},\n",
                "      \"bytes_per_entry\": {},\n",
                "      \"shards\": {},\n",
                "      \"sharded_wall_ms\": {:.0},\n",
                "      \"sharded_ms_per_sim_min\": {:.0},\n",
                "      \"speedup\": {:.2},\n",
                "      \"state_digest\": \"{}\",\n",
                "      \"bit_identical\": {}\n",
                "    }}"
            ),
            p.servers(),
            p.podsets,
            sim_mins,
            serial.probes,
            serial.records,
            serial.wall_ms,
            serial.ms_per_sim_min,
            ns_per_probe,
            rss_mb,
            rss_per_server,
            serial.entries,
            bytes_per_entry,
            sharded.shards,
            sharded.wall_ms,
            sharded.ms_per_sim_min,
            speedup,
            digest,
            bit_identical,
        ));
    }

    let out_path = args.out.clone().unwrap_or_else(|| {
        if args.smoke {
            "target/BENCH_scale.smoke.json".to_string()
        } else {
            "BENCH_scale.json".to_string()
        }
    });
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"pingmesh-bench-scale/3\",\n",
            "  \"smoke\": {},\n",
            "  \"threads\": {},\n",
            "  \"points\": [\n{}\n  ]\n",
            "}}\n"
        ),
        args.smoke,
        threads,
        rows.join(",\n"),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write scale curve");
    println!("  curve written to {out_path}");

    if args.check {
        println!(
            "  [{}] every sharded run bit-identical to its serial twin",
            if all_match { "ok" } else { "FAIL" }
        );
        println!(
            "  [{}] every serial digest equal to the committed BENCH_scale.json row",
            if all_as_recorded { "ok" } else { "FAIL" }
        );
        println!(
            "  [{}] at most {BYTES_PER_ENTRY_CEILING} resident bytes per pinglist entry at 5,120 servers",
            if within_bytes { "ok" } else { "FAIL" }
        );
        if !(all_match && all_as_recorded && within_bytes) {
            std::process::exit(1);
        }
    }
}
