//! The committed fuzz telemetry, replayed: the five cheapest smoke seeds
//! of `tests/fuzz_smoke.json` run through every oracle and must report
//! the committed probe, record and SLA-row counts, no violation, and the
//! committed digest — which folds in the store's record multiset, so a
//! store that lost or bent a field on its way in or out moves it.

use pingmesh_check::{run_scenario, RunReport, ScenarioSpec};
use serde::Deserialize;

/// The telemetry file `pingmesh-fuzz --smoke --out` writes.
#[derive(Deserialize)]
#[allow(dead_code)]
struct Telemetry {
    scenarios: u64,
    violations: u64,
    deterministic: bool,
    probes_run: u64,
    records_stored: u64,
    reports: Vec<RunReport>,
}

#[test]
fn cheapest_smoke_seeds_reproduce_their_committed_reports() {
    let committed: Telemetry =
        serde_json::from_str(include_str!("../../../tests/fuzz_smoke.json")).unwrap();
    let mut reports = committed.reports;
    reports.sort_by_key(|r| (r.probes_run, r.seed));
    for want in &reports[..5] {
        let got = run_scenario(&ScenarioSpec::generate(want.seed, true));
        let fields = |r: &RunReport| {
            (
                r.seed,
                r.probes_run,
                r.records_stored,
                r.records_discarded,
                r.sla_rows,
                r.violations.len(),
                r.digest,
            )
        };
        assert_eq!(fields(&got), fields(want), "seed {}", want.seed);
    }
}
