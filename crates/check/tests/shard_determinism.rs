//! The ISSUE-mandated shard-determinism gate: a seeded 4-podset scenario
//! run at 1, 2, 4 and 8 shards must yield byte-identical `CosmosStore`
//! contents and SLA rows. Unlike the digest-based oracle in
//! `run_scenario`, this test compares the *actual* records and rows, so
//! a divergence shows up as a readable diff, not just a hash mismatch.

use pingmesh_check::scenario::{FaultPlan, OutagePlan, ReplicaOutagePlan, TIER_LEAF};
use pingmesh_check::{build_orchestrator_sharded, state_digest, ScenarioSpec};
use pingmesh_core::Orchestrator;
use pingmesh_dsa::SlaRow;
use pingmesh_types::{ProbeRecord, SimDuration, SimTime};

/// A 4-podset deployment with enough going on (payload + low-QoS probes,
/// a leaf fault, a store outage, a controller outage) that any ordering
/// or RNG-stream leak between shards would surface.
fn four_podset_spec() -> ScenarioSpec {
    ScenarioSpec {
        seed: 0xD15C_0EE4,
        dcs: 1,
        podsets: 4,
        pods_per_podset: 2,
        servers_per_pod: 2,
        leaves_per_podset: 2,
        spines: 2,
        borders: 1,
        sim_minutes: 22,
        extent_cap: 64,
        upload_batch_records: 100,
        upload_retries: 2,
        intra_pod_interval_secs: 4,
        intra_dc_interval_secs: 12,
        inter_dc_interval_secs: 30,
        payload_probes: true,
        qos_low: true,
        auto_mitigate: true,
        mitigation_drill: None,
        switch_faults: vec![FaultPlan {
            tier: TIER_LEAF,
            pick: 3,
            kind: 2, // SilentRandomDrop
            param_permille: 120,
            from_min: 4,
            until_min: 12,
        }],
        podset_downs: Vec::new(),
        store_outages: vec![OutagePlan {
            from_min: 8,
            until_min: 11,
        }],
        controller_outages: vec![ReplicaOutagePlan {
            replica: 0,
            from_min: 14,
            until_min: 17,
        }],
        reingest_batches: 2,
    }
}

fn run(spec: &ScenarioSpec, shards: usize) -> Orchestrator {
    let mut orch = build_orchestrator_sharded(spec, shards);
    orch.run_until(SimTime::ZERO + SimDuration::from_mins(u64::from(spec.sim_minutes)));
    orch
}

/// Every stored record, in a canonical order (extent iteration crosses a
/// `HashMap`, so the raw scan order is not comparable).
fn store_records(orch: &Orchestrator) -> Vec<ProbeRecord> {
    let mut records: Vec<ProbeRecord> = orch
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
        .into_iter()
        .flat_map(|chunk| chunk.iter().copied())
        .collect();
    records.sort_by_key(|r| {
        (
            r.ts,
            r.src,
            r.dst,
            r.src_port,
            r.dst_port,
            pingmesh_check::digest::record_hash(r),
        )
    });
    records
}

fn sla_rows(orch: &Orchestrator) -> Vec<SlaRow> {
    orch.pipeline().db.rows().copied().collect()
}

#[test]
fn four_podset_scenario_is_bit_identical_at_1_2_4_8_shards() {
    let spec = four_podset_spec();
    let serial = run(&spec, 1);
    let baseline_records = store_records(&serial);
    let baseline_rows = sla_rows(&serial);
    let baseline_digest = state_digest(&serial);
    assert!(
        serial.outputs().probes_run > 0 && !baseline_records.is_empty(),
        "scenario must actually probe and store"
    );

    for shards in [2usize, 4, 8] {
        let sharded = run(&spec, shards);
        assert_eq!(
            sharded.shard_count(),
            shards.min(4), // clamped to podset count
            "{shards} requested shards"
        );
        assert_eq!(
            sharded.outputs().probes_run,
            serial.outputs().probes_run,
            "{shards} shards: probe count"
        );
        let records = store_records(&sharded);
        assert_eq!(
            records.len(),
            baseline_records.len(),
            "{shards} shards: record count"
        );
        for (i, (a, b)) in records.iter().zip(&baseline_records).enumerate() {
            assert_eq!(a, b, "{shards} shards: record {i} diverged");
        }
        assert_eq!(
            sla_rows(&sharded),
            baseline_rows,
            "{shards} shards: SLA rows"
        );
        assert_eq!(
            state_digest(&sharded),
            baseline_digest,
            "{shards} shards: state digest"
        );
    }
}

#[test]
fn fuzzer_specs_hold_shard_determinism_across_seeds() {
    // A few generated specs on top of the hand-built one, so shapes with
    // podset downs / tiny extents are covered here too (the run_scenario
    // oracle covers every fuzz seed; this pins a fast deterministic set).
    for seed in [0u64, 5, 11] {
        let spec = ScenarioSpec::generate(seed, true);
        let serial = run(&spec, 1);
        let sharded = run(&spec, 2 + (seed as usize % 3) * 3); // 2, 5, 8
        assert_eq!(
            state_digest(&sharded),
            state_digest(&serial),
            "seed {seed}: sharded state digest diverged"
        );
        assert_eq!(
            store_records(&sharded),
            store_records(&serial),
            "seed {seed}"
        );
    }
}
