//! `pingmesh-sim` — run a simulated Pingmesh deployment from the command
//! line and print the operator's view: SLAs, patterns, alerts, findings,
//! watchdog status.
//!
//! ```text
//! pingmesh-sim [--hours N] [--dcs N] [--seed N]
//!              [--inject spine-silent|tor-blackhole|podset-down]
//! ```

use pingmesh::dsa::viz::{describe_pattern, render_ansi};
use pingmesh::dsa::{HeatmapMatrix, ScopeKey};
use pingmesh::netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh::types::{DcId, PodId, PodsetId, SimDuration, SimTime};
use pingmesh::{watchdog, Orchestrator, OrchestratorConfig};
use std::sync::Arc;

struct Args {
    minutes: u64,
    dcs: usize,
    seed: u64,
    inject: Option<String>,
    tiny: bool,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        minutes: 60,
        dcs: 1,
        seed: 0xC0FFEE,
        inject: None,
        tiny: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--hours" => {
                args.minutes = value("--hours")?
                    .parse::<u64>()
                    .map_err(|e| format!("{e}"))?
                    * 60
            }
            "--minutes" => {
                args.minutes = value("--minutes")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tiny" => args.tiny = true,
            "--json" => args.json = Some(value("--json")?),
            "--dcs" => args.dcs = value("--dcs")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--inject" => args.inject = Some(value("--inject")?),
            "--help" | "-h" => {
                return Err(
                    "usage: pingmesh-sim [--hours N | --minutes N] [--dcs N] [--seed N] \
                            [--tiny] [--json FILE] \
                            [--inject spine-silent|tor-blackhole|podset-down]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.dcs == 0 || args.dcs > 5 {
        return Err("--dcs must be 1..=5".into());
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

    let profiles = DcProfile::table1_presets();
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: (0..args.dcs)
                .map(|i| {
                    if args.tiny {
                        DcSpec::tiny(&profiles[i].name)
                    } else {
                        DcSpec::medium(&profiles[i].name)
                    }
                })
                .collect(),
        })
        .expect("valid topology"),
    );
    let mut services = ServiceMap::new();
    services
        .register("search", topo.servers_in_dc(DcId(0)).step_by(3))
        .expect("service");

    let mut o = Orchestrator::new(
        topo.clone(),
        profiles[..args.dcs].to_vec(),
        services,
        OrchestratorConfig {
            seed: args.seed,
            ..OrchestratorConfig::default()
        },
    );

    match args.inject.as_deref() {
        None => {}
        Some("spine-silent") => {
            let spine = topo.spines_of_dc(DcId(0)).next().unwrap();
            o.net_mut().faults_mut().add_switch_fault(
                spine,
                ActiveFault {
                    // 1% per-packet: diluted by ECMP (1/#spines of probes
                    // cross this switch) the DC-wide rate still clears the
                    // 1e-3 incident threshold on every topology size.
                    kind: FaultKind::SilentRandomDrop { prob: 0.01 },
                    from: SimTime::ZERO + SimDuration::from_mins(args.minutes / 2),
                    until: None,
                },
            );
            println!(
                "injected: silent random drops on {spine} at t={}min",
                args.minutes / 2
            );
        }
        Some("tor-blackhole") => {
            let tor = topo.tor_of_pod(PodId(3));
            o.net_mut().faults_mut().add_switch_fault(
                tor,
                ActiveFault {
                    kind: FaultKind::BlackholeIp { frac: 0.1 },
                    from: SimTime::ZERO,
                    until: None,
                },
            );
            println!("injected: type-1 black-hole on {tor} (10% of address pairs)");
        }
        Some("podset-down") => {
            // The outage spans the middle half of the run, whatever its
            // length, so both the fault and the recovery are observable.
            let from = args.minutes / 4;
            let until = args.minutes * 3 / 4;
            o.net_mut().faults_mut().set_podset_down(
                PodsetId(1),
                SimTime::ZERO + SimDuration::from_mins(from),
                Some(SimTime::ZERO + SimDuration::from_mins(until)),
            );
            println!("injected: podset1 power loss from minute {from} to minute {until}");
        }
        Some(other) => {
            eprintln!("unknown --inject {other}");
            std::process::exit(2);
        }
    }

    println!(
        "simulating {} servers across {} DC(s) for {}min (seed {})...",
        topo.server_count(),
        args.dcs,
        args.minutes,
        args.seed
    );
    o.run_until(SimTime::ZERO + SimDuration::from_mins(args.minutes));

    println!("\n=== network SLA (latest window) ===");
    for dc in topo.dcs() {
        if let Some(row) = o.pipeline().db.latest(ScopeKey::Dc(dc)) {
            println!(
                "  {:<18} p50={:>6}us p99={:>8}us drop_rate={:.1e} ({} probes)",
                topo.dc(dc).name,
                row.p50_us,
                row.p99_us,
                row.drop_rate,
                row.samples
            );
        }
    }

    println!("\n=== latency patterns (latest) ===");
    let agg = pingmesh::dsa::agg::WindowAggregate::build(
        o.pipeline()
            .store
            .scan_all_window_chunks(o.now() - SimDuration::from_mins(30), o.now())
            .records(),
    );
    for dc in topo.dcs() {
        let m = HeatmapMatrix::from_aggregate(&agg, &topo, dc);
        let verdict = pingmesh::dsa::classify_pattern(&m);
        println!("{}", render_ansi(&m));
        println!("  {}", describe_pattern(verdict));
    }

    let raised: Vec<_> = o.outputs().alerts.iter().filter(|a| a.raised).collect();
    println!("\n=== alerts ===");
    if raised.is_empty() {
        println!("  none");
    }
    for a in raised {
        println!(
            "  {} {:?} {:?} value={:.2e}",
            a.at, a.scope, a.kind, a.value
        );
    }

    println!("\n=== findings & repairs ===");
    for (t, sw, score) in &o.outputs().blackhole_candidates {
        println!("  {t}: black-hole candidate {sw} (score {score:.2})");
    }
    for inc in &o.outputs().incidents {
        println!(
            "  {}: silent-drop incident, rate {:.1e} (baseline {:.1e})",
            inc.window_start, inc.drop_rate, inc.baseline
        );
    }
    for (t, sw) in &o.repair().reload_log {
        println!("  {t}: reloaded {sw}");
    }
    for (t, sw) in o.switch_drains() {
        println!("  {t}: isolated {sw} for RMA");
    }
    if o.outputs().blackhole_candidates.is_empty()
        && o.outputs().incidents.is_empty()
        && o.repair().reload_log.is_empty()
    {
        println!("  none");
    }

    println!("\n=== watchdog ===");
    let findings = watchdog::check(&o);
    if findings.is_empty() {
        println!("  all components healthy");
    }
    for f in findings {
        println!("  {f}");
    }
    println!(
        "\nprobes executed: {}, records stored: {} ({} physical bytes with replication)",
        o.outputs().probes_run,
        o.pipeline().store.record_count(),
        o.pipeline().store.physical_bytes()
    );
    let resident = pingmesh::obs::registry()
        .gauge("pingmesh_agent_resident_bytes")
        .get();
    let held: u64 = topo.servers().map(|s| o.agent(s).held_entries()).sum();
    println!(
        "agent result rings: {resident:.0} resident bytes for {held} held entries ({:.1} B per entry)",
        resident / held.max(1) as f64
    );
    let registry = pingmesh::obs::registry();
    let deferred = registry.gauge("pingmesh_core_barrier_upload_bytes").get();
    let records = registry.gauge("pingmesh_core_barrier_upload_records").get();
    println!(
        "barrier uploads: {deferred:.0} bytes for {records:.0} deferred records at the largest barrier ({:.1} B per record)",
        deferred / records.max(1.0)
    );
    let pinglist = pingmesh::obs::registry()
        .gauge("pingmesh_agent_pinglist_bytes")
        .get();
    let entries: usize = topo.servers().map(|s| o.agent(s).peer_count()).sum();
    println!(
        "agent pinglists: {pinglist:.0} bytes for {entries} installed entries ({:.1} B per entry)",
        pinglist / entries.max(1) as f64
    );
    let pages = pingmesh::obs::registry()
        .snapshot()
        .gauge("pingmesh_types_histogram_pages")
        .unwrap_or(0.0);
    println!(
        "histogram pages: {pages:.0} live ({:.0} bytes of counts)",
        pages * 128.0
    );
    let store = &o.pipeline().store;
    let (tables, resident) = (store.table_bytes(), store.resident_records());
    let record_bytes = store.resident_bytes() - tables;
    println!(
        "store: {record_bytes} record bytes for {resident} resident records ({:.1} B per record), {tables} table bytes",
        record_bytes as f64 / resident.max(1) as f64
    );

    if let Some(path) = args.json {
        write_json_report(&o, &topo, &path);
        println!("json report written to {path}");
    }
}

/// Machine-readable run summary, for dashboards and CI.
fn write_json_report(o: &Orchestrator, topo: &Topology, path: &str) {
    use std::fmt::Write as _;
    let mut dcs = String::new();
    for dc in topo.dcs() {
        if let Some(row) = o.pipeline().db.latest(ScopeKey::Dc(dc)) {
            if !dcs.is_empty() {
                dcs.push(',');
            }
            let _ = write!(
                dcs,
                r#"{{"dc":{},"p50_us":{},"p99_us":{},"drop_rate":{:e},"samples":{}}}"#,
                dc.0, row.p50_us, row.p99_us, row.drop_rate, row.samples
            );
        }
    }
    let alerts = o.outputs().alerts.iter().filter(|a| a.raised).count();
    let report = format!(
        r#"{{"probes_run":{},"records_stored":{},"alerts_raised":{},"incidents":{},"reloads":{},"isolations":{},"dc_sla":[{}]}}"#,
        o.outputs().probes_run,
        o.pipeline().store.record_count(),
        alerts,
        o.outputs().incidents.len(),
        o.repair().reload_log.len(),
        o.switch_drains().count(),
        dcs
    );
    std::fs::write(path, report).expect("write json report");
}
