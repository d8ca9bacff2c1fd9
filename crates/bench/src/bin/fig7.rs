//! Figure 7 — silent random packet drops of a Spine switch during an
//! incident (paper §5.2).
//!
//! "Under normal condition, the percentage should be at around
//! 1e-4 - 1e-5. But it suddenly jumped up to around 2e-3. ... by using
//! Pingmesh, we could figure out several source and destination pairs
//! that experienced around 1%-2% random packet drops. We then launched
//! TCP traceroute against those pairs, and finally pinpointed one Spine
//! switch. The silent random packet drops were gone after we isolated
//! the switch from serving live traffic."
//!
//! Timeline: two hours of normal operation build the detector baseline;
//! a Spine switch then starts flipping bits in its fabric module (0.4 %
//! silent per-packet drops — invisible to its own counters); the 10-min
//! job sees the DC drop rate jump, the traceroute campaign localizes the
//! switch, the mitigation engine drains it, and the rate recovers.

use pingmesh_bench::*;
use pingmesh_core::controller::GeneratorConfig;
use pingmesh_core::netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh_core::topology::{ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{DcId, SimDuration, SimTime};
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn main() {
    header(
        "fig7",
        "Silent random packet drops of a Spine switch (incident)",
    );
    init_telemetry("fig7");
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
        ..OrchestratorConfig::default()
    };
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        config,
    );

    // The faulty Spine: silent random drops from t = 2h (open-ended; a
    // reload would NOT fix this — only isolation does).
    let bad_spine = topo.spines_of_dc(DcId(0)).nth(2).expect("spine");
    let onset = SimTime::ZERO + SimDuration::from_hours(2);
    o.net_mut().faults_mut().add_switch_fault(
        bad_spine,
        ActiveFault {
            kind: FaultKind::SilentRandomDrop { prob: 0.004 },
            from: onset,
            until: None,
        },
    );
    pingmesh_obs::emit!(Info, "bench.fig7", "scenario",
        "servers" => topo.server_count(),
        "bad_spine" => format!("{bad_spine}"),
        "onset" => format!("{onset}"),
        "drop_prob" => 0.004);

    o.run_until(SimTime::ZERO + SimDuration::from_hours(5));

    // The drop-rate series the detector recorded (10-min windows).
    let series = o.pipeline().silent.series(DcId(0));
    assert!(!series.is_empty());
    let points: Vec<(String, f64)> = series.iter().map(|(t, r)| (format!("{t}"), *r)).collect();
    print_series("DC drop rate per 10-min window", &points, "rate");

    let baseline: f64 = {
        let pre: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t < onset)
            .map(|&(_, r)| r)
            .collect();
        pre.iter().sum::<f64>() / pre.len().max(1) as f64
    };
    let peak = series.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
    let last = series.last().map(|&(_, r)| r).unwrap_or(0.0);

    println!();
    compare_row(
        "normal drop rate",
        "1e-4 - 1e-5",
        &format!("{baseline:.1e}"),
    );
    compare_row("incident drop rate", "~2e-3", &format!("{peak:.1e}"));
    compare_row("after isolation", "back to normal", &format!("{last:.1e}"));

    // Detection + localization outputs.
    let incidents = &o.outputs().incidents;
    println!("\n  incidents raised: {}", incidents.len());
    for inc in incidents.iter().take(3) {
        println!(
            "    window {}: rate {:.1e} (baseline {:.1e}), pattern: {:?}, {} traceroute target pairs",
            inc.window_start,
            inc.drop_rate,
            inc.baseline,
            inc.pattern,
            inc.suspect_pairs.len()
        );
    }
    let isolations: Vec<_> = o.switch_drains().collect();
    for (t, sw) in &isolations {
        println!("  isolated for RMA at {t}: {sw}");
    }

    println!("\n--- shape checks ---");
    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        println!("  [{}] {what}", if cond { "ok" } else { "FAIL" });
        ok &= cond;
    };
    check("baseline in the 1e-4..1e-5 decade", baseline < 2e-4);
    check(
        "incident rate within 3x of the paper's 2e-3",
        (6e-4..6e-3).contains(&peak),
    );
    check("an incident was raised", !incidents.is_empty());
    // The mitigation engine may drain the spine more than once: the 0.4 %
    // drop is invisible to the small confirmation-probe set, so the first
    // verification falsely passes and un-drains, and the recurrence guard
    // re-drains on the incident's return. Every isolation must still name
    // the one faulty spine.
    check(
        "traceroute localized and isolated only the faulty spine",
        !isolations.is_empty() && isolations.iter().all(|&(_, sw)| sw == bad_spine),
    );
    check(
        "drop rate recovered after isolation",
        last < 3.0 * baseline.max(1e-5),
    );
    check(
        "the switch's own visible counters stayed clean (silent!)",
        o.net().switch_counters(bad_spine).visible_discards == 0,
    );
    finish_telemetry("fig7");
    if !ok {
        std::process::exit(1);
    }
}
