//! Smoke tests over the operator CLIs (spawned as real processes).

use std::process::Command;

#[test]
fn pingmesh_sim_help_and_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .arg("--help")
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "--help exits with usage status");
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("usage: pingmesh-sim"));

    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args(["--nope"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args(["--dcs", "9"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "--dcs out of range must fail");
}

#[test]
fn pingmesh_sim_runs_a_tiny_healthy_scenario() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args(["--tiny", "--minutes", "25", "--seed", "7"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== network SLA"));
    assert!(stdout.contains("drop_rate="));
    assert!(stdout.contains("all components healthy"));
    assert!(stdout.contains("probes executed:"));
}

/// After 12 sim-minutes every agent has uploaded, and its result ring —
/// the `pingmesh_agent_resident_bytes` gauge — costs at most 64 bytes per
/// entry it holds.
#[test]
fn pingmesh_sim_agents_hold_each_result_in_at_most_64_bytes() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args(["--tiny", "--minutes", "12", "--seed", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("agent result rings: "))
        .expect("the summary reports the agents' rings");
    let words: Vec<&str> = line.split_whitespace().collect();
    let resident: f64 = words[0].parse().unwrap();
    let held: f64 = words[4].parse().unwrap();
    assert!(held > 0.0, "{line}");
    assert!(resident / held <= 64.0, "{line}");
}

/// Uploads wait for the barrier packed: the deferred batches of the
/// largest barrier hold 32 bytes per record (a `ProbeRecord` is 72).
#[test]
fn pingmesh_sim_defers_uploads_in_32_bytes_per_record() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args(["--tiny", "--minutes", "12", "--seed", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("barrier uploads: "))
        .expect("the summary reports the deferred uploads");
    let words: Vec<&str> = line.split_whitespace().collect();
    let bytes: f64 = words[0].parse().unwrap();
    let records: f64 = words[3].parse().unwrap();
    assert!(records > 0.0, "{line}");
    assert!(bytes / records <= 32.0, "{line}");
}

/// The store keeps each record in 32 bytes, its endpoints and probe shape
/// interned in tables of their own.
#[test]
fn pingmesh_sim_stores_records_in_32_bytes() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args(["--tiny", "--minutes", "12", "--seed", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("store: "))
        .expect("the summary reports the store's resident bytes");
    let words: Vec<&str> = line.split_whitespace().collect();
    let bytes: f64 = words[0].parse().unwrap();
    let records: f64 = words[4].parse().unwrap();
    assert!(records > 0.0, "{line}");
    assert!(bytes / records <= 32.0, "{line}");
}

/// The fleet keeps each installed pinglist entry once, packed: entry,
/// ring slot and due time are 20 bytes, and the arenas' growth slack and
/// cadence groups stay under 2× that (a 32-byte entry copy alone would
/// read 44). The live histogram-page gauge reads the agents' and the
/// store's histograms.
#[test]
fn pingmesh_sim_reports_pinglist_bytes_and_histogram_pages() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args(["--tiny", "--minutes", "12", "--seed", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let words = |prefix: &str| -> Vec<f64> {
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("the summary has a {prefix:?} line"));
        line.split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect()
    };
    let pinglist = words("agent pinglists: ");
    let (bytes, entries) = (pinglist[0], pinglist[1]);
    assert!(entries > 0.0, "{pinglist:?}");
    assert!(bytes / entries <= 40.0, "{pinglist:?}");
    let pages = words("histogram pages: ");
    assert!(pages[0] > 0.0, "{pages:?}");
}

#[test]
fn pingmesh_sim_writes_a_json_report() {
    let dir = std::env::temp_dir().join(format!("pm-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_file = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-sim"))
        .args([
            "--tiny",
            "--minutes",
            "25",
            "--json",
            json_file.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let report = std::fs::read_to_string(&json_file).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&report).expect("valid json");
    assert!(parsed["probes_run"].as_u64().unwrap() > 0);
    assert!(parsed["dc_sla"].as_array().unwrap().len() == 1);
    assert_eq!(parsed["alerts_raised"].as_u64().unwrap(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pingmesh_controller_writes_and_accepts_topology() {
    let dir = std::env::temp_dir().join(format!("pm-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let topo_file = dir.join("topo.json");
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-controller"))
        .args(["--write-default-topology", topo_file.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&topo_file).unwrap();
    assert!(written.contains("podsets"));
    // The written spec parses back through the library.
    pingmesh::topology::TopologySpec::from_json(&written).expect("valid spec");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pingmesh_controller_rejects_bad_topology_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-controller"))
        .args(["--topology", "/nonexistent/nope.json"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn pingmesh_agent_requires_its_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-agent"))
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--server is required"));

    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-agent"))
        .arg("--help")
        .output()
        .expect("spawn");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pingmesh-agent"));
}

#[test]
fn pingmesh_collector_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_pingmesh-collector"))
        .arg("--help")
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: pingmesh-collector"));
}
