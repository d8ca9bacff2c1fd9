//! Cross-crate integration tests: the full Pingmesh system over the
//! simulated data center, exercising the controller → agent → network →
//! store → analysis → repair loop end to end.

use pingmesh::controller::{GeneratorConfig, MitigationState};
use pingmesh::dsa::agg::WindowAggregate;
use pingmesh::dsa::{classify_pattern, HeatmapMatrix, LatencyPattern, ScopeKey};
use pingmesh::netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh::types::{DcId, PodId, PodsetId, SimDuration, SimTime};
use pingmesh::{MitDevice, Orchestrator, OrchestratorConfig};
use std::sync::Arc;

fn small_topo() -> Arc<Topology> {
    Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".into(),
                podsets: 4,
                pods_per_podset: 4,
                servers_per_pod: 4,
                leaves_per_podset: 2,
                spines: 4,
                borders: 2,
            }],
        })
        .unwrap(),
    )
}

fn fast_config() -> OrchestratorConfig {
    OrchestratorConfig {
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(10),
            intra_dc_interval: SimDuration::from_secs(15),
            ..GeneratorConfig::default()
        },
        ..OrchestratorConfig::default()
    }
}

#[test]
fn healthy_deployment_produces_clean_slas_everywhere() {
    let topo = small_topo();
    let mut services = ServiceMap::new();
    let svc = services
        .register("search", topo.servers_in_dc(DcId(0)).step_by(2))
        .unwrap();
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        services,
        fast_config(),
    );
    o.run_until(SimTime::ZERO + SimDuration::from_mins(45));

    // Every scope has SLA rows; none violate.
    let dc = o.pipeline().db.latest(ScopeKey::Dc(DcId(0))).unwrap();
    assert!(dc.samples > 10_000);
    assert!(dc.p50_us > 100 && dc.p50_us < 500);
    assert!(dc.drop_rate < 1e-3);
    let svc_row = o.pipeline().db.latest(ScopeKey::Service(svc)).unwrap();
    assert!(svc_row.samples > 100);
    for pod in topo.pods_in_dc(DcId(0)) {
        assert!(
            o.pipeline().db.latest(ScopeKey::Pod(pod)).is_some(),
            "pod {pod} missing SLA row"
        );
    }
    assert!(o.outputs().alerts.iter().all(|a| !a.raised));
    assert!(o.outputs().incidents.is_empty());
    // The visualization is all green.
    assert!(o
        .outputs()
        .patterns
        .iter()
        .all(|&(_, _, p)| p == LatencyPattern::Normal));
}

#[test]
fn blackhole_detect_repair_loop_clears_the_fault() {
    let topo = small_topo();
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        fast_config(),
    );
    let bad_tor = topo.tor_of_pod(PodId(5));
    o.net_mut().faults_mut().add_switch_fault(
        bad_tor,
        ActiveFault {
            kind: FaultKind::BlackholeIp { frac: 0.15 },
            from: SimTime::ZERO,
            until: None,
        },
    );
    o.run_until(SimTime::ZERO + SimDuration::from_hours(2));

    // Detected...
    assert!(
        o.outputs()
            .blackhole_candidates
            .iter()
            .any(|&(_, sw, _)| sw == bad_tor),
        "bad ToR never became a candidate: {:?}",
        o.outputs().blackhole_candidates
    );
    // ...reloaded...
    assert!(o.repair().reload_log.iter().any(|&(_, sw)| sw == bad_tor));
    // ...and the fault is gone afterwards.
    let now = o.now();
    assert!(!o
        .net()
        .faults()
        .faults_on(bad_tor, now)
        .any(|f| matches!(f.kind, FaultKind::BlackholeIp { .. })));
}

#[test]
fn silent_spine_incident_is_detected_localized_isolated() {
    let topo = small_topo();
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        fast_config(),
    );
    let bad_spine = topo.spines_of_dc(DcId(0)).nth(1).unwrap();
    let onset = SimTime::ZERO + SimDuration::from_hours(2);
    o.net_mut().faults_mut().add_switch_fault(
        bad_spine,
        ActiveFault {
            kind: FaultKind::SilentRandomDrop { prob: 0.005 },
            from: onset,
            until: None,
        },
    );
    o.run_until(SimTime::ZERO + SimDuration::from_hours(4));

    assert!(!o.outputs().incidents.is_empty(), "incident not detected");
    // The mitigation engine (auto_mitigate, the default) drains the
    // localized spine out of ECMP. A 0.5 % random drop is invisible to
    // the small confirmation-probe set, so the first verification
    // falsely passes and un-drains — the recurrence guard catches the
    // incident's return in the next hourly window, re-drains, and
    // escalates: the switch ends held for humans, out of ECMP.
    assert!(o.mitigation().drains() >= 1, "spine never drained");
    assert_eq!(
        o.mitigation().state_of(MitDevice::Switch(bad_spine)),
        Some(MitigationState::Escalated),
        "a recurring silent drop must end escalated"
    );
    assert_eq!(
        o.mitigation().drained_devices(),
        vec![MitDevice::Switch(bad_spine)],
        "wrong switch held drained"
    );
    assert!(o.net().faults().is_isolated(bad_spine), "drain actuated");
    assert!(
        o.mitigation()
            .transitions()
            .iter()
            .any(|t| t.reason == "recurrence"),
        "the re-drain must be flagged as a recurrence"
    );
    assert!(
        o.switch_drains().all(|(_, sw)| sw == bad_spine),
        "only the bad spine was ever isolated"
    );
    // The drop-rate series recovered after isolation.
    let series = o.pipeline().silent.series(DcId(0));
    let last = series.last().unwrap().1;
    assert!(last < 5e-4, "rate did not recover: {last}");
    // Silent means silent: the switch's visible counters are clean.
    assert_eq!(
        o.net().switch_counters(bad_spine).visible_discards,
        0,
        "silent drops must not appear in visible counters"
    );
}

#[test]
fn podset_power_loss_shows_white_cross_and_recovers() {
    let topo = small_topo();
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        fast_config(),
    );
    let down_from = SimTime::ZERO + SimDuration::from_mins(5);
    let down_to = SimTime::ZERO + SimDuration::from_mins(45);
    o.net_mut()
        .faults_mut()
        .set_podset_down(PodsetId(1), down_from, Some(down_to));
    o.run_until(SimTime::ZERO + SimDuration::from_mins(40));

    // During the outage the heatmap shows the white cross.
    let window_agg = |o: &Orchestrator, from_min, to_min| {
        let mins = |m| SimTime::ZERO + SimDuration::from_mins(m);
        let store = &o.pipeline().store;
        let chunks = store.scan_all_window_chunks(mins(from_min), mins(to_min));
        WindowAggregate::build(chunks.into_iter().flatten())
    };
    let agg = window_agg(&o, 10, 30);
    let m = HeatmapMatrix::from_aggregate(&agg, &topo, DcId(0));
    assert_eq!(
        classify_pattern(&m),
        LatencyPattern::PodsetDown(PodsetId(1))
    );

    // After power returns, probing to/from the podset resumes.
    o.run_until(SimTime::ZERO + SimDuration::from_mins(90));
    let agg = window_agg(&o, 60, 85);
    let m = HeatmapMatrix::from_aggregate(&agg, &topo, DcId(0));
    assert_eq!(classify_pattern(&m), LatencyPattern::Normal);
}

#[test]
fn clearing_pinglists_stops_the_fleet_and_restoring_resumes_it() {
    let topo = small_topo();
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        fast_config(),
    );
    o.run_until(SimTime::ZERO + SimDuration::from_mins(15));
    let before = o.outputs().probes_run;
    assert!(before > 0);

    // The paper's kill switch: remove all pinglist files.
    o.cluster_mut().clear_pinglists();
    // Agents poll every 10 minutes; give them two cycles, then observe a
    // quiet period.
    o.run_until(SimTime::ZERO + SimDuration::from_mins(40));
    let at_stop = o.outputs().probes_run;
    o.run_until(SimTime::ZERO + SimDuration::from_mins(70));
    let after_quiet = o.outputs().probes_run;
    assert_eq!(
        at_stop, after_quiet,
        "fleet must be silent once pinglists are removed"
    );

    // Restore: agents resume at their next poll.
    o.regenerate_pinglists(fast_config().generator);
    o.run_until(SimTime::ZERO + SimDuration::from_mins(100));
    assert!(
        o.outputs().probes_run > after_quiet,
        "fleet must resume after pinglists return"
    );
}

#[test]
fn store_outage_triggers_retry_then_discard_without_memory_growth() {
    let topo = small_topo();
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_central()],
        ServiceMap::new(),
        fast_config(),
    );
    // Cosmos is down for 40 minutes.
    o.add_store_outage(
        SimTime::ZERO + SimDuration::from_mins(5),
        SimTime::ZERO + SimDuration::from_mins(45),
    );
    o.run_until(SimTime::ZERO + SimDuration::from_hours(1));
    // Some agents discarded data (bounded memory!), and the system kept
    // working afterwards.
    let discarded: u64 = topo.servers().map(|s| o.agent(s).discarded_total()).sum();
    assert!(discarded > 0, "outage must cause discards");
    assert!(
        o.pipeline().store.record_count() > 0,
        "uploads must succeed after the outage"
    );
}
