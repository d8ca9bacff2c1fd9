//! The scenario grammar.
//!
//! A [`ScenarioSpec`] is the *entire* input of one fuzzed run: topology
//! shape, probe cadences, agent tunables, store geometry, and a fault
//! schedule, all drawn from one xorshift seed. The spec is plain data
//! (serde-serializable), which is what makes shrinking and pinning
//! possible: a failing run is reproduced by its spec alone, and the
//! shrinker edits the spec — not the run — until the failure is minimal.

use crate::rng::XorShift;
use serde::{Deserialize, Serialize};

/// Where a scheduled switch fault lands.
pub const TIER_TOR: u8 = 0;
/// Leaf tier (see [`TIER_TOR`]).
pub const TIER_LEAF: u8 = 1;
/// Spine tier (see [`TIER_TOR`]).
pub const TIER_SPINE: u8 = 2;

/// One scheduled switch fault. `pick` indexes into the chosen tier's
/// switch list modulo its length, so a spec stays valid when the shrinker
/// shrinks the topology under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Switch tier: 0 = ToR, 1 = leaf, 2 = spine.
    pub tier: u8,
    /// Index into the tier's switches (mod length).
    pub pick: u32,
    /// Fault mode: 0 BlackholeIp, 1 BlackholePort, 2 SilentRandomDrop,
    /// 3 FcsError, 4 CongestionDrop, 5 Down.
    pub kind: u8,
    /// Mode parameter in permille (fraction/probability × 1000).
    pub param_permille: u32,
    /// Activation minute.
    pub from_min: u32,
    /// Deactivation minute (exclusive).
    pub until_min: u32,
}

/// A podset power-down window. `pick` indexes podsets mod count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodsetDownPlan {
    /// Index into the podset list (mod length).
    pub pick: u32,
    /// Power-off minute.
    pub from_min: u32,
    /// Power-back minute.
    pub until_min: u32,
}

/// A mitigation-eligible fault: a long-lived silent packet-drop on one
/// switch, open-ended, so the detect → drain → verify loop has something
/// real to chew on. Scheduled by ~a quarter of generated scenarios (which
/// also run long enough for the 10-minute detection cadence to land and a
/// drain + soak to elapse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MitigationDrillPlan {
    /// Switch tier: 0 = ToR, 1 = leaf, 2 = spine.
    pub tier: u8,
    /// Index into the tier's switches (mod length).
    pub pick: u32,
    /// Silent-drop probability in permille.
    pub prob_permille: u32,
    /// Activation minute (the fault never deactivates).
    pub from_min: u32,
}

/// A store (upload front-end) outage window, in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutagePlan {
    /// Outage start minute.
    pub from_min: u32,
    /// Outage end minute.
    pub until_min: u32,
}

/// A controller replica outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaOutagePlan {
    /// Replica index (mod replica count).
    pub replica: u32,
    /// Outage start minute.
    pub from_min: u32,
    /// Outage end minute.
    pub until_min: u32,
}

/// The complete, self-contained description of one fuzzed scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Seed for the run's RNGs (netsim + the harness's own draws).
    pub seed: u64,
    /// Data centers (1–2; inter-DC paths need 2).
    pub dcs: u32,
    /// Podsets per DC.
    pub podsets: u32,
    /// Pods per podset.
    pub pods_per_podset: u32,
    /// Servers per pod.
    pub servers_per_pod: u32,
    /// Leaf switches per podset.
    pub leaves_per_podset: u32,
    /// Spine switches per DC.
    pub spines: u32,
    /// Border routers per DC.
    pub borders: u32,
    /// Virtual run length in minutes (≥ 22 so the first 10-min DSA tick,
    /// which fires at minute 20, lands inside the run).
    pub sim_minutes: u32,
    /// Store extent capacity in records — small values force extents to
    /// straddle window boundaries.
    pub extent_cap: u32,
    /// Agent upload batch-size trigger.
    pub upload_batch_records: u32,
    /// Agent upload retry budget.
    pub upload_retries: u32,
    /// Intra-pod probe interval, seconds.
    pub intra_pod_interval_secs: u32,
    /// Intra-DC probe interval, seconds.
    pub intra_dc_interval_secs: u32,
    /// Inter-DC probe interval, seconds.
    pub inter_dc_interval_secs: u32,
    /// Generate payload probes too.
    pub payload_probes: bool,
    /// Generate low-QoS probes too.
    pub qos_low: bool,
    /// Let findings act on the fabric: reloads, drains, verifications.
    pub auto_mitigate: bool,
    /// Open-ended switch fault that makes the run mitigation-eligible.
    pub mitigation_drill: Option<MitigationDrillPlan>,
    /// Scheduled switch faults.
    pub switch_faults: Vec<FaultPlan>,
    /// Podset power-down windows.
    pub podset_downs: Vec<PodsetDownPlan>,
    /// Store outage windows.
    pub store_outages: Vec<OutagePlan>,
    /// Controller replica outage windows.
    pub controller_outages: Vec<ReplicaOutagePlan>,
    /// Batches the CRDT oracle re-ingests the run's records in (shuffled,
    /// re-sharded) — exercises shard-partition independence.
    pub reingest_batches: u32,
}

impl ScenarioSpec {
    /// Derives a full scenario from one seed. `smoke` bounds the shapes
    /// so a 50-seed corpus stays under the CI gate's time budget.
    pub fn generate(seed: u64, smoke: bool) -> Self {
        let mut r = XorShift::new(seed ^ 0x5CEA_A210_F022_ED01);
        let dcs = if r.chance(300) { 2 } else { 1 };
        let podsets = r.range(1, 3) as u32;
        let pods_per_podset = r.range(1, if smoke { 2 } else { 3 }) as u32;
        let mut servers_per_pod = r.range(1, 4) as u32;
        // Keep fleets small: the point is shape diversity, not scale.
        let cap = if smoke { 24 } else { 48 };
        while dcs * podsets * pods_per_podset * servers_per_pod > cap && servers_per_pod > 1 {
            servers_per_pod -= 1;
        }
        let sim_minutes = if smoke {
            r.range(22, 28) as u32
        } else {
            r.range(22, 45) as u32
        };
        let mut spec = Self {
            seed,
            dcs,
            podsets,
            pods_per_podset,
            servers_per_pod,
            leaves_per_podset: r.range(1, 2) as u32,
            spines: r.range(1, 3) as u32,
            borders: 1,
            sim_minutes,
            extent_cap: r.range(16, 512) as u32,
            upload_batch_records: r.range(40, 300) as u32,
            upload_retries: r.range(0, 3) as u32,
            intra_pod_interval_secs: r.range(2, 10) as u32,
            intra_dc_interval_secs: r.range(5, 30) as u32,
            inter_dc_interval_secs: r.range(10, 60) as u32,
            payload_probes: r.chance(300),
            qos_low: r.chance(300),
            auto_mitigate: r.chance(700),
            mitigation_drill: None,
            switch_faults: Vec::new(),
            podset_downs: Vec::new(),
            store_outages: Vec::new(),
            controller_outages: Vec::new(),
            reingest_batches: r.range(1, 8) as u32,
        };
        for _ in 0..r.range(0, 3) {
            let from_min = r.range(1, sim_minutes.saturating_sub(5).max(1) as u64) as u32;
            spec.switch_faults.push(FaultPlan {
                tier: r.range(0, 2) as u8,
                pick: r.next_u64() as u32,
                kind: r.range(0, 5) as u8,
                param_permille: r.range(5, 400) as u32,
                from_min,
                until_min: from_min + r.range(2, 12) as u32,
            });
        }
        if r.chance(250) {
            let from_min = r.range(3, sim_minutes as u64 - 4) as u32;
            spec.podset_downs.push(PodsetDownPlan {
                pick: r.next_u64() as u32,
                from_min,
                until_min: from_min + r.range(2, 8) as u32,
            });
        }
        if r.chance(300) {
            let from_min = r.range(3, sim_minutes as u64 - 4) as u32;
            spec.store_outages.push(OutagePlan {
                from_min,
                until_min: from_min + r.range(1, 8) as u32,
            });
        }
        for _ in 0..r.range(0, 2) {
            let from_min = r.range(1, sim_minutes as u64 - 4) as u32;
            spec.controller_outages.push(ReplicaOutagePlan {
                replica: r.range(0, 1) as u32,
                from_min,
                until_min: from_min + r.range(2, 10) as u32,
            });
        }
        // A quarter of scenarios become mitigation drills: the run is
        // stretched so detection, the drain, and at least one soak +
        // verification land inside it, and one switch silently drops
        // packets with no end. The fault starts *after* the first 10-min
        // window, so the detector's baseline is clean and the jump both
        // fires and clears the engine's confidence gate.
        if r.chance(250) {
            spec.sim_minutes = spec.sim_minutes.max(if smoke { 42 } else { 52 });
            spec.auto_mitigate = true;
            spec.mitigation_drill = Some(MitigationDrillPlan {
                tier: r.range(0, 2) as u8,
                pick: r.next_u64() as u32,
                prob_permille: r.range(60, 220) as u32,
                from_min: r.range(11, 14) as u32,
            });
        }
        spec
    }

    /// Total simulated servers.
    pub fn server_count(&self) -> u32 {
        self.dcs * self.podsets * self.pods_per_podset * self.servers_per_pod
    }

    /// Serializes the spec as JSON (the pinning format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec is plain data")
    }

    /// Parses a spec pinned by [`ScenarioSpec::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad ScenarioSpec JSON: {e:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                ScenarioSpec::generate(seed, true),
                ScenarioSpec::generate(seed, true),
                "seed {seed}"
            );
        }
        assert_ne!(
            ScenarioSpec::generate(1, true),
            ScenarioSpec::generate(2, true)
        );
    }

    #[test]
    fn smoke_specs_stay_small_and_valid() {
        for seed in 0..200u64 {
            let s = ScenarioSpec::generate(seed, true);
            assert!(s.server_count() <= 24, "seed {seed}: {}", s.server_count());
            assert!(s.sim_minutes >= 22, "first 10-min tick must land");
            assert!(s.extent_cap >= 1 && s.upload_batch_records >= 1);
        }
    }

    #[test]
    fn json_round_trips() {
        let s = ScenarioSpec::generate(7, false);
        let round = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, round);
    }
}
