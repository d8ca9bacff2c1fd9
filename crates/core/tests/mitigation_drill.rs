//! End-to-end mitigation drills: the closed loop, detect → drain →
//! verify → un-drain, run against the full simulated deployment.
//!
//! Three scenarios:
//! * a type-1 black-hole across podset 0's Leaf tier — the whole-podset
//!   symptom escalates past the ToR reload path, traceroute pins a Leaf,
//!   the engine drains it, verification fails while the fault is live and
//!   passes once it clears, and a recurring fault on the same device
//!   after its verified un-drain is drained again and held for humans;
//! * the tier drain-budget guard — with a budget that floors to zero the
//!   engine refuses to act and pages instead;
//! * a podset power-down — the Figure-8(b) signature drains the podset
//!   out of pinglist generation and re-includes it once power returns;
//! * the switch off — with `auto_mitigate: false` every detector still
//!   reports, and nothing is reloaded, drained or cut out of the mesh.

use pingmesh_core::controller::{FindingKind, GeneratorConfig, MitigationConfig, MitigationState};
use pingmesh_core::netsim::faults::{ActiveFault, FaultKind};
use pingmesh_core::netsim::DcProfile;
use pingmesh_core::topology::{ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{DcId, PingTarget, PodsetId, SimDuration, SimTime, SwitchId};
use pingmesh_core::{MitDevice, Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn mins(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(m)
}

fn orch_with(config: OrchestratorConfig) -> Orchestrator {
    let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
    Orchestrator::new(topo, vec![DcProfile::ideal()], ServiceMap::new(), config)
}

/// Black-holes the whole Leaf tier of podset 0: a corrupted-TCAM fault on
/// both leaves, so every affected (src, dst) pair fails on *every* ECMP
/// path — the deterministic whole-podset symptom §5.1 escalates on.
fn blackhole_podset0_leaves(o: &mut Orchestrator, from: SimTime, until: Option<SimTime>) {
    let leaves: Vec<SwitchId> = o.net().topology().leaves_of_podset(PodsetId(0)).collect();
    assert_eq!(leaves.len(), 2);
    for leaf in leaves {
        o.net_mut().faults_mut().add_switch_fault(
            leaf,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.7 },
                from,
                until,
            },
        );
    }
}

/// The headline drill: detection → drain → (failed, then passed)
/// verification → un-drain → recurrence escalation.
#[test]
fn blackhole_drill_detect_drain_verify_undrain_escalate() {
    let mut o = orch_with(OrchestratorConfig::default());
    // Fault lives from the start (so the first hourly window [0,60) shows
    // the deterministic symptom) until minute 85 (the "vendor fixed it"
    // moment) — the minute-80 verification must fail, the minute-90 one
    // must pass.
    blackhole_podset0_leaves(&mut o, SimTime::ZERO, Some(mins(85)));

    // The hourly black-hole job fires at minute 70, sees every ToR of
    // podset 0 symptomatic, escalates, and the traceroute campaign pins
    // a Leaf, which the engine drains out of ECMP.
    o.run_until(mins(75));
    assert!(
        !o.outputs().escalations.is_empty(),
        "whole-podset symptom must escalate"
    );
    assert!(
        !o.outputs().traceroutes.is_empty(),
        "escalation must be localized by traceroute"
    );
    assert_eq!(o.mitigation().drains(), 1);
    let drained = o.mitigation().drained_devices();
    let MitDevice::Switch(leaf) = drained[0] else {
        panic!("a switch must be drained, got {drained:?}");
    };
    assert!(
        o.net()
            .topology()
            .leaves_of_podset(PodsetId(0))
            .any(|l| l == leaf),
        "the drained device must be a podset-0 Leaf, got {leaf}"
    );
    assert!(o.net().faults().is_isolated(leaf), "drain actuated in ECMP");
    assert_eq!(
        o.mitigation().kind_of(MitDevice::Switch(leaf)),
        Some(FindingKind::Blackhole)
    );

    // Minute-80 verification runs against the still-live fault and keeps
    // the drain; after the fault clears at 85, the minute-90 attempt
    // proves the device healthy and un-drains it.
    o.run_until(mins(91));
    let dev = MitDevice::Switch(leaf);
    assert_eq!(
        o.mitigation().state_of(dev),
        Some(MitigationState::Undrained)
    );
    assert!(!o.net().faults().is_isolated(leaf), "back in ECMP");
    assert_eq!(o.mitigation().undrains(), 1);
    assert!(
        o.mitigation()
            .transitions()
            .iter()
            .any(|t| t.reason == "still_unhealthy"),
        "the live-fault verification attempt must have failed first"
    );

    // Recurrence: the same device goes bad again (this time dropping
    // packets at random). The incident for window [90,100) fires at
    // minute 110, lands inside the cooldown, and is suppressed — no
    // flapping; the [100,110) incident at minute 120 is past the cooldown
    // but inside the recurrence window, so the engine drains the device
    // again and holds it for humans.
    let mut o2 = o; // (rebind to make the phase change obvious)
    o2.net_mut().faults_mut().add_switch_fault(
        leaf,
        ActiveFault {
            kind: FaultKind::SilentRandomDrop { prob: 0.05 },
            from: mins(92),
            until: None,
        },
    );
    o2.run_until(mins(122));
    assert_eq!(
        o2.mitigation().state_of(dev),
        Some(MitigationState::Escalated)
    );
    assert!(o2.net().faults().is_isolated(leaf), "held drained for RMA");
    assert!(o2.mitigation().escalations() >= 1);
    assert!(
        o2.mitigation()
            .transitions()
            .iter()
            .any(|t| t.reason == "recurrence"),
        "the escalation must be logged as a recurrence"
    );
    assert_eq!(
        o2.mitigation().drains(),
        2,
        "exactly one re-drain — the cooldown suppressed the early finding"
    );

    // Recovery is visible in the data: the first post-un-drain window has
    // no deterministically failing pairs (the recurring fault drops
    // packets at random; it never kills a pair outright).
    let agg = o2
        .pipeline()
        .store
        .merged_window_aggregate(mins(90), mins(100));
    assert!(
        agg.pairs.values().all(|v| !v.is_deterministic_failure()),
        "post-recovery window must be clean of deterministic failures"
    );

    // Every transition the engine took is counted in the obs registry.
    let counted: u64 = ["pending", "drained", "verifying", "undrained", "escalated"]
        .iter()
        .map(|s| {
            pingmesh_obs::registry()
                .counter_with("pingmesh_mitigation_transitions_total", &[("to", s)])
                .get()
        })
        .sum();
    assert!(
        counted >= o2.mitigation().transitions().len() as u64,
        "obs transition counters must cover the log ({counted} < {})",
        o2.mitigation().transitions().len()
    );
}

/// The fail-safe: a drain budget that floors to zero means the engine
/// never touches the tier — it pages instead, and nothing is isolated.
#[test]
fn tier_guard_blocks_drain_and_pages() {
    let mut o = orch_with(OrchestratorConfig {
        mitigation: MitigationConfig {
            // 4 leaves in the DC: floor(0.1 × 4) = 0 — nothing drainable.
            max_drain_fraction: 0.1,
            ..MitigationConfig::default()
        },
        ..OrchestratorConfig::default()
    });
    blackhole_podset0_leaves(&mut o, SimTime::ZERO, None);
    o.run_until(mins(72));
    assert!(
        !o.outputs().escalations.is_empty(),
        "detection still works with the guard closed"
    );
    assert_eq!(o.mitigation().drains(), 0, "the guard must block the drain");
    let topo = o.net().topology().clone();
    for leaf in topo.leaves_of_podset(PodsetId(0)) {
        assert!(!o.net().faults().is_isolated(leaf));
    }
    assert!(
        o.mitigation().escalations() >= 1,
        "a blocked drain is a page to humans"
    );
}

/// Podset power-down: the watchdog signature (podset silent as a source,
/// deterministically unreachable as a destination) drains the podset out
/// of pinglist generation; outside-in confirmation probes bring it back
/// once power returns.
#[test]
fn podset_power_down_drains_pinglists_then_reincludes() {
    let mut o = orch_with(OrchestratorConfig {
        mitigation: MitigationConfig {
            // 2 podsets in the DC: floor(0.5 × 2) = 1 — one may drain.
            max_drain_fraction: 0.5,
            ..MitigationConfig::default()
        },
        ..OrchestratorConfig::default()
    });
    let ps = PodsetId(1);
    let dev = MitDevice::Podset(ps);
    o.run_until(mins(22));
    // Power out from minute 22 to minute 52.
    o.net_mut()
        .faults_mut()
        .set_podset_down(ps, mins(22), Some(mins(52)));

    // The first fully-dark window is [30,40); its job fires at minute 50
    // and the podset is cut out of pinglist generation.
    o.run_until(mins(55));
    assert!(o.mitigation().is_drained(dev), "podset drained");
    assert!(o.excluded_podsets().contains(&ps));
    assert_eq!(
        o.mitigation().kind_of(dev),
        Some(FindingKind::PodsetPowerDown)
    );
    // The regenerated pinglists cut the dark podset out of the mesh:
    // servers elsewhere no longer target it, and its own servers get
    // empty lists (the controller is the source of truth; agents pick the
    // new generation up at their next poll).
    let topo = o.net().topology().clone();
    let outside_server = topo
        .servers()
        .find(|&s| topo.server(s).podset != ps)
        .unwrap();
    let now = o.now();
    let list = o
        .cluster()
        .fetch(outside_server, now)
        .unwrap()
        .expect("healthy server keeps a pinglist");
    assert!(
        list.entries.iter().all(|e| match e.target {
            PingTarget::Server { id, .. } => topo.server(id).podset != ps,
            PingTarget::Vip { .. } => true,
        }),
        "no probes may target the drained podset"
    );
    let dark_server = topo
        .servers()
        .find(|&s| topo.server(s).podset == ps)
        .unwrap();
    let dark_list = o.cluster().fetch(dark_server, now).unwrap().unwrap();
    assert!(
        dark_list.entries.is_empty(),
        "the dark podset's servers get empty lists"
    );

    // Power is back at minute 52; the minute-60 verification probes the
    // podset from every other podset, sees it answer, and re-includes it.
    o.run_until(mins(75));
    assert_eq!(
        o.mitigation().state_of(dev),
        Some(MitigationState::Undrained)
    );
    assert!(o.excluded_podsets().is_empty(), "podset back in the mesh");
    assert!(o.mitigation().undrains() >= 1);
    // The re-include regenerated pinglists again: the podset is a probe
    // target once more, and its own servers have non-empty lists.
    let now = o.now();
    let back = o.cluster().fetch(dark_server, now).unwrap().unwrap();
    assert!(
        !back.entries.is_empty(),
        "re-included servers probe the mesh again"
    );
}

/// One switch gates every actuation: with `auto_mitigate` off, a
/// black-holed ToR and a silently dropping spine are still found beside
/// a dark podset, but no switch is reloaded or isolated, no podset
/// leaves the pinglists, and the engine logs nothing. With the switch on,
/// this scenario reloads the ToR, drains the spine and drains the podset.
#[test]
fn mitigation_off_reports_findings_and_touches_nothing() {
    let mut o = orch_with(OrchestratorConfig {
        auto_mitigate: false,
        // A sparser mesh than the default keeps the 72-minute debug run
        // cheap; the findings below still fire.
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(60),
            intra_dc_interval: SimDuration::from_secs(120),
            ..GeneratorConfig::default()
        },
        mitigation: MitigationConfig {
            // A budget that would let the dark podset drain.
            max_drain_fraction: 0.5,
            ..MitigationConfig::default()
        },
        ..OrchestratorConfig::default()
    });
    let topo = o.net().topology().clone();
    let bad_tor = topo.tor_of_pod(topo.pods_in_podset(PodsetId(1)).next().unwrap());
    let bad_spine = topo.spines_of_dc(DcId(0)).next().unwrap();
    let faults = o.net_mut().faults_mut();
    faults.add_switch_fault(
        bad_tor,
        ActiveFault {
            kind: FaultKind::BlackholeIp { frac: 0.15 },
            from: SimTime::ZERO,
            until: None,
        },
    );
    faults.add_switch_fault(
        bad_spine,
        ActiveFault {
            kind: FaultKind::SilentRandomDrop { prob: 0.1 },
            from: mins(12),
            until: Some(mins(32)),
        },
    );
    faults.set_podset_down(PodsetId(0), mins(22), Some(mins(52)));
    o.run_until(mins(72));

    let out = o.outputs();
    assert!(
        out.blackhole_candidates
            .iter()
            .any(|&(_, sw, _)| sw == bad_tor),
        "the black-holed ToR is a reload candidate: {:?}",
        out.blackhole_candidates
    );
    assert!(!out.incidents.is_empty(), "the spine raises an incident");
    assert!(o.repair().reload_log.is_empty() && o.repair().deferred.is_empty());
    assert!(topo.switches().all(|sw| !o.net().faults().is_isolated(sw)));
    assert!(o.excluded_podsets().is_empty());
    assert!(o.mitigation().transitions().is_empty());
}
