//! Figure 8 — network latency patterns through visualization (paper
//! §6.3).
//!
//! Renders the four canonical podset-pair P99 heatmaps and runs the
//! automatic pattern classifier on each:
//!   (a) normal — all green;
//!   (b) podset down — white cross (power loss: no data from/to it);
//!   (c) podset failure — red cross (its Leaf switches dropping);
//!   (d) spine failure — red with green squares along the diagonal.

use pingmesh_bench::*;
use pingmesh_core::controller::GeneratorConfig;
use pingmesh_core::dsa::agg::WindowAggregate;
use pingmesh_core::dsa::viz::{describe_pattern, render_ansi, render_ascii};
use pingmesh_core::dsa::{classify_pattern, HeatmapMatrix, LatencyPattern};
use pingmesh_core::netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh_core::topology::{ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{DcId, PodsetId, SimDuration, SimTime};
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn scenario() -> Orchestrator {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![small_dc_spec()],
        })
        .expect("valid spec"),
    );
    let config = OrchestratorConfig {
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(10),
            intra_dc_interval: SimDuration::from_secs(15),
            ..GeneratorConfig::default()
        },
        // Observe the raw patterns with nothing cleaning up: no reloads,
        // and no drain engine cutting a dark podset out of the pinglists.
        auto_mitigate: false,
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(
        topo,
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        config,
    )
}

/// Runs one scenario; the last element says whether the run ended with no
/// mitigation transition logged and no podset excluded.
fn run_and_classify(mut o: Orchestrator, label: &str) -> (LatencyPattern, String, String, bool) {
    let until = SimTime::ZERO + SimDuration::from_mins(50);
    let agg = run_and_aggregate(&mut o, until, SimDuration::from_mins(10));
    let matrix = HeatmapMatrix::from_aggregate(&agg, o.net().topology(), DcId(0));
    let pattern = classify_pattern(&matrix);
    let ansi = render_ansi(&matrix);
    let ascii = render_ascii(&matrix);
    println!("--- {label} ---");
    print!("{ansi}");
    println!("  classifier: {}", describe_pattern(pattern));
    println!();
    let untouched = o.mitigation().transitions().is_empty() && o.excluded_podsets().is_empty();
    (pattern, ascii, label.to_string(), untouched)
}

fn main() {
    header("fig8", "Latency patterns through visualization");
    init_telemetry("fig8");
    let mut results = Vec::new();

    // (a) Normal.
    results.push((
        run_and_classify(scenario(), "(a) normal"),
        LatencyPattern::Normal,
    ));

    // (b) Podset down: podset 2 loses power for the whole run.
    {
        let mut o = scenario();
        o.net_mut()
            .faults_mut()
            .set_podset_down(PodsetId(2), SimTime::ZERO, None);
        results.push((
            run_and_classify(o, "(b) podset down (power loss)"),
            LatencyPattern::PodsetDown(PodsetId(2)),
        ));
    }

    // (c) Podset failure: both Leaf switches of podset 1 silently drop
    // 8% of packets — latency from/to the podset goes out of SLA.
    {
        let mut o = scenario();
        let leaves: Vec<_> = o.net().topology().leaves_of_podset(PodsetId(1)).collect();
        for leaf in leaves {
            o.net_mut().faults_mut().add_switch_fault(
                leaf,
                ActiveFault {
                    kind: FaultKind::SilentRandomDrop { prob: 0.08 },
                    from: SimTime::ZERO,
                    until: None,
                },
            );
        }
        results.push((
            run_and_classify(o, "(c) podset failure (its Leaf switches dropping)"),
            LatencyPattern::PodsetFailure(PodsetId(1)),
        ));
    }

    // (d) Spine failure: one of the four spines drops 20% of packets —
    // every cross-podset pair suffers, intra-podset stays clean.
    {
        let mut o = scenario();
        let spine = o.net().topology().spines_of_dc(DcId(0)).nth(1).unwrap();
        o.net_mut().faults_mut().add_switch_fault(
            spine,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 0.20 },
                from: SimTime::ZERO,
                until: None,
            },
        );
        results.push((
            run_and_classify(o, "(d) spine failure"),
            LatencyPattern::SpineFailure,
        ));
    }

    println!("--- ASCII renders (G=green Y=yellow R=red .=no data) ---");
    for ((_, ascii, label, _), _) in &results {
        println!("{label}:");
        for line in ascii.lines().skip(1) {
            println!("    {line}");
        }
    }

    println!("\n--- shape checks ---");
    let mut ok = true;
    for ((pattern, _, label, _), expected) in &results {
        let good = pattern == expected;
        println!(
            "  [{}] {label}: classified {:?} (expected {:?})",
            if good { "ok" } else { "FAIL" },
            pattern,
            expected
        );
        ok &= good;
    }
    let untouched = results.iter().all(|((.., untouched), _)| *untouched);
    println!(
        "  [{}] no mitigation transition and no excluded podset in any scenario",
        if untouched { "ok" } else { "FAIL" }
    );
    ok &= untouched;
    // The WindowAggregate import is exercised via run_and_aggregate.
    let _ = WindowAggregate::default();
    finish_telemetry("fig8");
    if !ok {
        std::process::exit(1);
    }
}
