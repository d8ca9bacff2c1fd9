//! `pingmesh_types_rtts_classified` counts one classification per
//! successful probe folded into agent counters, and nothing for the DSA
//! fold. A binary of its own because the gauge is process-wide.

use pingmesh_dsa::agg::WindowAggregate;
use pingmesh_types::telemetry::RTTS_CLASSIFIED;
use pingmesh_types::{
    AgentCounters, DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId,
    SimDuration, SimTime,
};
use std::sync::atomic::Ordering;

fn outcome(i: u64) -> ProbeOutcome {
    match i % 4 {
        0 => ProbeOutcome::Timeout,
        1 => ProbeOutcome::Success {
            rtt: SimDuration::from_micros(3_000_200),
        },
        _ => ProbeOutcome::Success {
            rtt: SimDuration::from_micros(200 + i),
        },
    }
}

#[test]
fn the_gauge_counts_agent_observations_not_folds() {
    let gauge = || RTTS_CLASSIFIED.load(Ordering::Relaxed);
    let records: Vec<ProbeRecord> = (0..1_000)
        .map(|i| ProbeRecord {
            ts: SimTime(i),
            src: ServerId(0),
            dst: ServerId(1 + i as u32 % 9),
            src_pod: PodId(0),
            dst_pod: PodId(i as u32 % 3),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(i as u32 % 2),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: outcome(i),
        })
        .collect();

    let before = gauge();
    let agg = WindowAggregate::build(&records);
    assert_eq!(agg.record_count, 1_000);
    assert_eq!(gauge(), before, "folding records classifies nothing");

    let mut counters = AgentCounters::new();
    for r in &records {
        counters.observe(r.outcome);
    }
    assert_eq!(counters.probes_succeeded, 750);
    assert_eq!(gauge(), before + 750, "one per successful observation");
}
