//! Spec → orchestrated run → oracle verdicts.
//!
//! [`run_scenario`] is the harness's single entry point: it builds the
//! full deployment a [`ScenarioSpec`] describes (topology → pinglists →
//! agents probing a faulted netsim → uploads → CosmosStore ingest → DSA
//! ticks), drives it to the spec's horizon, and hands the quiesced
//! orchestrator to every oracle in [`crate::oracle`]. The run is pure:
//! same spec, same [`RunReport`] — byte for byte.

use crate::oracle::{self, Violation};
use crate::scenario::{ScenarioSpec, TIER_LEAF, TIER_TOR};
use pingmesh_agent::AgentConfig;
use pingmesh_controller::GeneratorConfig;
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use pingmesh_dsa::CosmosStore;
use pingmesh_netsim::{ActiveFault, DcProfile, FaultKind};
use pingmesh_topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh_types::{ServerId, SimDuration, SimTime, SwitchId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The verdict of one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Seed the scenario came from.
    pub seed: u64,
    /// Probes the fleet executed.
    pub probes_run: u64,
    /// Records that reached the store.
    pub records_stored: u64,
    /// Records the agents discarded (overflow + upload give-up).
    pub records_discarded: u64,
    /// SLA rows the DSA ticks produced.
    pub sla_rows: u64,
    /// Oracle violations, empty on a clean run.
    pub violations: Vec<Violation>,
    /// Order-independent digest of the run's observable state; two runs
    /// of the same spec must produce the same digest (the determinism
    /// gate compares them).
    pub digest: u64,
}

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn minute(m: u32) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(u64::from(m))
}

/// Builds the orchestrator a spec describes, with every scheduled fault
/// installed and ready to fire. Runs on the serial engine (one shard).
pub fn build_orchestrator(spec: &ScenarioSpec) -> Orchestrator {
    build_orchestrator_sharded(spec, 1)
}

/// [`build_orchestrator`] on the sharded engine: the same deployment,
/// partitioned into `shards` per-podset shards. Any shard count
/// must reproduce the serial run bit for bit — that is the sixth oracle.
pub fn build_orchestrator_sharded(spec: &ScenarioSpec, shards: usize) -> Orchestrator {
    let dcs = (0..spec.dcs)
        .map(|i| DcSpec {
            name: format!("d{i}"),
            podsets: spec.podsets,
            pods_per_podset: spec.pods_per_podset,
            servers_per_pod: spec.servers_per_pod,
            leaves_per_podset: spec.leaves_per_podset,
            spines: spec.spines,
            borders: spec.borders,
        })
        .collect();
    let topo = Arc::new(Topology::build(TopologySpec { dcs }).expect("generated specs are valid"));

    // Latency profiles: cycle the paper's Table-1 presets, pinned by the
    // spec seed so shrinking other fields never changes the profiles.
    let presets = DcProfile::table1_presets();
    let profiles: Vec<DcProfile> = (0..spec.dcs as usize)
        .map(|i| presets[(spec.seed as usize + i) % presets.len()].clone())
        .collect();

    // One service spanning the fleet's extremes, when there is a fleet.
    let mut services = ServiceMap::new();
    let n = topo.server_count() as u32;
    if n >= 2 {
        services
            .register("svc-fuzz", [ServerId(0), ServerId(n - 1)])
            .expect("two distinct servers");
    }

    let config = OrchestratorConfig {
        agent: AgentConfig {
            upload_batch_records: spec.upload_batch_records as usize,
            upload_retries: spec.upload_retries,
            ..AgentConfig::default()
        },
        generator: GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(u64::from(spec.intra_pod_interval_secs)),
            intra_dc_interval: SimDuration::from_secs(u64::from(spec.intra_dc_interval_secs)),
            inter_dc_interval: SimDuration::from_secs(u64::from(spec.inter_dc_interval_secs)),
            payload_probes: spec.payload_probes,
            qos_low: spec.qos_low,
            ..GeneratorConfig::default()
        },
        controller_replicas: 2,
        seed: spec.seed,
        auto_mitigate: spec.auto_mitigate,
        shards,
        ..OrchestratorConfig::default()
    };
    let mut orch = Orchestrator::new(topo.clone(), profiles, services.clone(), config);

    // The orchestrator builds its store with production-sized extents;
    // re-seat a store with the spec's (often tiny) extent cap so extents
    // straddle window boundaries and the scan oracles bite.
    let mut store = CosmosStore::new(spec.extent_cap as usize, 3);
    store
        .set_service_map(Arc::new(services))
        .expect("an in-memory refold cannot fail");
    orch.pipeline_mut().store = store;

    // Install the fault schedule.
    for f in &spec.switch_faults {
        let switches: Vec<SwitchId> = match f.tier {
            TIER_TOR => topo
                .dcs()
                .flat_map(|dc| topo.pods_in_dc(dc).collect::<Vec<_>>())
                .map(|p| topo.tor_of_pod(p))
                .collect(),
            TIER_LEAF => topo
                .dcs()
                .flat_map(|dc| topo.podsets_in_dc(dc).collect::<Vec<_>>())
                .flat_map(|ps| topo.leaf_slice_of_podset(ps).to_vec())
                .collect(),
            _ => topo
                .dcs()
                .flat_map(|dc| topo.spine_slice_of_dc(dc).to_vec())
                .collect(),
        };
        if switches.is_empty() {
            continue;
        }
        let sw = switches[f.pick as usize % switches.len()];
        let p = f64::from(f.param_permille) / 1_000.0;
        let kind = match f.kind {
            0 => FaultKind::BlackholeIp { frac: p },
            1 => FaultKind::BlackholePort { frac: p },
            2 => FaultKind::SilentRandomDrop { prob: p },
            3 => FaultKind::FcsError { per_kb_prob: p },
            4 => FaultKind::CongestionDrop { prob: p },
            _ => FaultKind::Down,
        };
        orch.net_mut().faults_mut().add_switch_fault(
            sw,
            ActiveFault {
                kind,
                from: minute(f.from_min),
                until: Some(minute(f.until_min)),
            },
        );
    }
    if let Some(d) = &spec.mitigation_drill {
        let switches: Vec<SwitchId> = match d.tier {
            TIER_TOR => topo
                .dcs()
                .flat_map(|dc| topo.pods_in_dc(dc).collect::<Vec<_>>())
                .map(|p| topo.tor_of_pod(p))
                .collect(),
            TIER_LEAF => topo
                .dcs()
                .flat_map(|dc| topo.podsets_in_dc(dc).collect::<Vec<_>>())
                .flat_map(|ps| topo.leaf_slice_of_podset(ps).to_vec())
                .collect(),
            _ => topo
                .dcs()
                .flat_map(|dc| topo.spine_slice_of_dc(dc).to_vec())
                .collect(),
        };
        if !switches.is_empty() {
            let sw = switches[d.pick as usize % switches.len()];
            orch.net_mut().faults_mut().add_switch_fault(
                sw,
                ActiveFault {
                    kind: FaultKind::SilentRandomDrop {
                        prob: f64::from(d.prob_permille) / 1_000.0,
                    },
                    from: minute(d.from_min),
                    until: None,
                },
            );
        }
    }
    for pd in &spec.podset_downs {
        let podsets: Vec<_> = topo
            .dcs()
            .flat_map(|dc| topo.podsets_in_dc(dc).collect::<Vec<_>>())
            .collect();
        if podsets.is_empty() {
            continue;
        }
        let ps = podsets[pd.pick as usize % podsets.len()];
        orch.net_mut().faults_mut().set_podset_down(
            ps,
            minute(pd.from_min),
            Some(minute(pd.until_min)),
        );
    }
    for o in &spec.store_outages {
        orch.add_store_outage(minute(o.from_min), minute(o.until_min));
    }
    for o in &spec.controller_outages {
        let i = o.replica as usize % 2;
        orch.cluster_mut()
            .replica_mut(i)
            .add_outage(minute(o.from_min), Some(minute(o.until_min)));
    }
    orch
}

/// Runs one scenario and checks every oracle on the quiesced state.
pub fn run_scenario(spec: &ScenarioSpec) -> RunReport {
    let mut orch = build_orchestrator(spec);
    orch.run_until(minute(spec.sim_minutes));

    let mut violations: Vec<Violation> = Vec::new();
    violations.extend(oracle::check_conservation(&orch));
    violations.extend(oracle::check_window_partials(&orch));
    violations.extend(oracle::check_crdt_reingest(&orch, spec));
    violations.extend(oracle::check_quantiles(&orch));
    violations.extend(oracle::check_sla_rows(&orch));
    violations.extend(oracle::check_scan_equivalence(&orch));
    violations.extend(oracle::check_quality(&orch, spec));
    violations.extend(oracle::check_serve_coherence(&orch));
    violations.extend(oracle::check_crash_recovery(&orch, spec));
    violations.extend(oracle::check_mitigation(&orch));

    // Sixth family: shard determinism. Re-run the whole scenario on the
    // sharded engine (shard count varies with the seed so campaigns
    // cover 2/4/8) and demand a bit-identical observable state.
    let shard_choices = [2usize, 4, 8];
    let shards = shard_choices[spec.seed as usize % shard_choices.len()];
    let serial_digest = crate::digest::state_digest(&orch);
    let mut sharded = build_orchestrator_sharded(spec, shards);
    sharded.run_until(minute(spec.sim_minutes));
    let sharded_digest = crate::digest::state_digest(&sharded);
    if sharded_digest != serial_digest {
        violations.push(Violation {
            oracle: "shard_determinism".into(),
            detail: format!(
                "{shards}-shard run diverged from serial: state digest \
                 {sharded_digest:#018x} != {serial_digest:#018x} \
                 (probes {} vs {}, records {} vs {}, sla rows {} vs {})",
                sharded.outputs().probes_run,
                orch.outputs().probes_run,
                sharded.pipeline().store.record_count(),
                orch.pipeline().store.record_count(),
                sharded.pipeline().db.len(),
                orch.pipeline().db.len(),
            ),
        });
    }

    let reg = pingmesh_obs::registry();
    reg.counter("pingmesh_check_scenarios_total").inc();
    if !violations.is_empty() {
        reg.counter("pingmesh_check_violations_total")
            .add(violations.len() as u64);
    }

    let topo = orch.net().topology().clone();
    let discarded: u64 = topo
        .servers()
        .map(|s| orch.agent(s).discarded_total())
        .sum();
    let store = &orch.pipeline().store;
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for v in [
        spec.seed,
        orch.outputs().probes_run,
        store.record_count(),
        store.logical_bytes(),
        store.partial_count() as u64,
        orch.pipeline().db.len() as u64,
        orch.outputs().alerts.len() as u64,
        orch.outputs().incidents.len() as u64,
        orch.outputs().escalations.len() as u64,
        discarded,
        serial_digest,
        violations.len() as u64,
    ] {
        fnv1a(&mut digest, v);
    }

    RunReport {
        seed: spec.seed,
        probes_run: orch.outputs().probes_run,
        records_stored: store.record_count(),
        records_discarded: discarded,
        sla_rows: orch.pipeline().db.len() as u64,
        violations,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_healthy_smoke_scenario_passes_every_oracle() {
        let spec = ScenarioSpec::generate(0, true);
        let report = run_scenario(&spec);
        assert!(report.probes_run > 0, "the fleet probed");
        assert!(
            report.violations.is_empty(),
            "oracles clean: {:?}",
            report.violations
        );
    }

    #[test]
    fn same_spec_same_digest() {
        let spec = ScenarioSpec::generate(3, true);
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.digest, b.digest, "runs must be deterministic");
        assert_eq!(a.probes_run, b.probes_run);
        assert_eq!(a.records_stored, b.records_stored);
    }
}
