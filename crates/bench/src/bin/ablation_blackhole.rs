//! Ablation 3 — black-hole detector sensitivity vs the ToR-score
//! threshold (paper §5.1: "we then select the switches with black-hole
//! score larger than a threshold").
//!
//! Sweeps the score threshold on a deployment with known faulty ToRs and
//! reports precision / recall of the hourly detection, showing the
//! operating point the default (0.6) sits at.

use pingmesh_bench::*;
use pingmesh_core::controller::GeneratorConfig;
use pingmesh_core::dsa::agg::WindowAggregate;
use pingmesh_core::dsa::detect::blackhole::{BlackholeConfig, BlackholeDetector};
use pingmesh_core::netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh_core::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{SimDuration, SimTime, SwitchId};
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use std::collections::HashSet;
use std::sync::Arc;

fn main() {
    header(
        "ablation_blackhole",
        "Black-hole detector: precision/recall vs ToR-score threshold",
    );
    init_telemetry("ablation_blackhole");
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".into(),
                podsets: 8,
                pods_per_podset: 8,
                servers_per_pod: 4,
                leaves_per_podset: 2,
                spines: 8,
                borders: 2,
            }],
        })
        .expect("valid spec"),
    );
    let config = OrchestratorConfig {
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(30),
            intra_dc_interval: SimDuration::from_secs(120),
            ..GeneratorConfig::default()
        },
        // Leave faults in place and every switch in ECMP: pure detection.
        auto_repair: false,
        auto_mitigate: false,
        ..OrchestratorConfig::default()
    };
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        config,
    );

    // Ground truth: 8 faulty ToRs with 2% TCAM corruption.
    let faulty: HashSet<SwitchId> = (0..8u32).map(|i| SwitchId::tor(i * 7 % 64)).collect();
    for &tor in &faulty {
        o.net_mut().faults_mut().add_switch_fault(
            tor,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.02 },
                from: SimTime::ZERO,
                until: None,
            },
        );
    }
    println!(
        "deployment: {} servers, 64 ToRs, {} faulty (2% of address-pair space each)",
        topo.server_count(),
        faulty.len()
    );
    pingmesh_obs::emit!(Info, "bench.ablation_blackhole", "observing", "sim_hours" => 4u64);
    let until = SimTime::ZERO + SimDuration::from_hours(4);
    let agg: WindowAggregate = run_and_aggregate(&mut o, until, SimDuration::from_mins(30));

    println!(
        "  {:>10} {:>10} {:>10} {:>10} {:>12}",
        "threshold", "flagged", "hits", "precision", "recall"
    );
    let mut best: Option<(f64, f64, f64)> = None;
    for threshold in [0.2, 0.4, 0.5, 0.6, 0.8, 1.0] {
        let det = BlackholeDetector::new(BlackholeConfig {
            score_threshold: threshold,
            min_probes_per_pair: 2,
            min_reach_fraction: 0.2,
        });
        let finding = det.detect(&agg, &topo);
        let flagged: HashSet<SwitchId> = finding.reload_candidates.iter().map(|c| c.tor).collect();
        let hits = flagged.intersection(&faulty).count();
        let precision = if flagged.is_empty() {
            1.0
        } else {
            hits as f64 / flagged.len() as f64
        };
        let recall = hits as f64 / faulty.len() as f64;
        println!(
            "  {threshold:>10.1} {:>10} {hits:>10} {precision:>9.0}% {recall:>11.0}%",
            flagged.len(),
            precision = precision * 100.0,
            recall = recall * 100.0,
        );
        if threshold == 0.6 {
            best = Some((threshold, precision, recall));
        }
    }

    let (_, precision, recall) = best.expect("0.6 swept");
    println!("\n--- shape checks (operating point at the default threshold 0.6) ---");
    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        println!("  [{}] {what}", if cond { "ok" } else { "FAIL" });
        ok &= cond;
    };
    check(
        &format!(
            "precision ≥ 60% at the default threshold (got {:.0}%)",
            precision * 100.0
        ),
        precision >= 0.6,
    );
    check(
        &format!(
            "recall ≥ 90% at the default threshold (got {:.0}%)",
            recall * 100.0
        ),
        recall >= 0.9,
    );
    check(
        "no mitigation transition and no excluded podset (faults stayed in place)",
        o.mitigation().transitions().is_empty() && o.excluded_podsets().is_empty(),
    );
    println!(
        "  note: thresholds trade recall for precision; 0.8 reaches 100% precision at\n\
         \x20 slightly lower recall. The repair loop tolerates false positives (a reload\n\
         \x20 is cheap and budgeted), so the default favors recall, as the paper's did."
    );
    finish_telemetry("ablation_blackhole");
    if !ok {
        std::process::exit(1);
    }
}
