//! Failing-seed shrinking.
//!
//! When a scenario trips an oracle, the raw spec is rarely the story —
//! the bug usually survives with fewer faults, a shorter run, and a
//! smaller fleet. [`shrink`] greedily edits the failing spec one field
//! at a time, re-runs the pipeline after each edit, and keeps any edit
//! that still fails, until no single edit preserves the failure (or the
//! re-run budget is spent). [`regression_snippet`] renders the minimal
//! spec as a ready-to-paste regression test.

use crate::run::run_scenario;
use crate::scenario::ScenarioSpec;

/// Upper bound on shrink re-runs; each re-run is a full sim, so the
/// budget keeps a pathological seed from stalling the whole campaign.
pub const MAX_SHRINK_RUNS: usize = 64;

/// Candidate single-step edits, cheapest-win first: structural deletions
/// (whole fault entries), then halvings (duration, fleet dims), then
/// simplifications (re-ingest batching off).
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for i in 0..spec.switch_faults.len() {
        let mut s = spec.clone();
        s.switch_faults.remove(i);
        out.push(s);
    }
    for i in 0..spec.podset_downs.len() {
        let mut s = spec.clone();
        s.podset_downs.remove(i);
        out.push(s);
    }
    for i in 0..spec.store_outages.len() {
        let mut s = spec.clone();
        s.store_outages.remove(i);
        out.push(s);
    }
    for i in 0..spec.controller_outages.len() {
        let mut s = spec.clone();
        s.controller_outages.remove(i);
        out.push(s);
    }
    if spec.sim_minutes > 22 {
        let mut s = spec.clone();
        // Halve toward the 22-minute floor (first DSA tick at minute 20).
        s.sim_minutes = (spec.sim_minutes / 2).max(22);
        out.push(s);
    }
    for (get, set) in [
        (
            spec.servers_per_pod,
            (|s: &mut ScenarioSpec, v| s.servers_per_pod = v) as fn(&mut ScenarioSpec, u32),
        ),
        (spec.pods_per_podset, |s, v| s.pods_per_podset = v),
        (spec.podsets, |s, v| s.podsets = v),
        (spec.spines, |s, v| s.spines = v),
        (spec.leaves_per_podset, |s, v| s.leaves_per_podset = v),
        (spec.dcs, |s, v| s.dcs = v),
    ] {
        if get > 1 {
            let mut s = spec.clone();
            set(&mut s, get / 2);
            out.push(s);
        }
    }
    if spec.reingest_batches > 1 {
        let mut s = spec.clone();
        s.reingest_batches = 1;
        out.push(s);
    }
    if spec.payload_probes || spec.qos_low {
        let mut s = spec.clone();
        s.payload_probes = false;
        s.qos_low = false;
        out.push(s);
    }
    out
}

/// [`shrink`] with an injectable failure predicate (`true` = the spec
/// still fails) — the predicate is what a re-run of the pipeline
/// answers in production, and what tests replace with synthetic bugs.
fn shrink_with(spec: &ScenarioSpec, mut fails: impl FnMut(&ScenarioSpec) -> bool) -> ScenarioSpec {
    let mut best = spec.clone();
    let mut runs = 0usize;
    'outer: while runs < MAX_SHRINK_RUNS {
        for cand in candidates(&best) {
            if runs >= MAX_SHRINK_RUNS {
                break 'outer;
            }
            runs += 1;
            if fails(&cand) {
                best = cand;
                continue 'outer; // restart from the smaller spec
            }
        }
        break; // no single edit preserves the failure: local minimum
    }
    best
}

/// Greedily shrinks a failing spec to a (locally) minimal spec that
/// still fails. The input must already fail; the result is guaranteed
/// to fail too (each kept edit is validated by a full re-run).
pub fn shrink(spec: &ScenarioSpec) -> ScenarioSpec {
    debug_assert!(
        !run_scenario(spec).violations.is_empty(),
        "shrink() wants a failing spec"
    );
    shrink_with(spec, |s| !run_scenario(s).violations.is_empty())
}

/// Renders a minimal failing spec as a ready-to-paste regression test.
pub fn regression_snippet(spec: &ScenarioSpec) -> String {
    let json = spec.to_json();
    format!(
        r####"#[test]
fn fuzz_regression_seed_{seed}() {{
    // Minimal failing ScenarioSpec found by pingmesh-fuzz; see
    // crates/check. Every oracle must pass on this scenario.
    let spec = pingmesh_check::ScenarioSpec::from_json(
        r###"{json}"###,
    )
    .unwrap();
    let report = pingmesh_check::run_scenario(&spec);
    assert!(report.violations.is_empty(), "{{:?}}", report.violations);
}}"####,
        seed = spec.seed,
        json = json
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FaultPlan;

    #[test]
    fn candidates_only_ever_shrink() {
        let spec = ScenarioSpec::generate(9, false);
        for c in candidates(&spec) {
            let smaller = c.switch_faults.len() < spec.switch_faults.len()
                || c.podset_downs.len() < spec.podset_downs.len()
                || c.store_outages.len() < spec.store_outages.len()
                || c.controller_outages.len() < spec.controller_outages.len()
                || c.sim_minutes < spec.sim_minutes
                || c.server_count() < spec.server_count()
                || c.spines < spec.spines
                || c.leaves_per_podset < spec.leaves_per_podset
                || c.reingest_batches < spec.reingest_batches
                || (!c.payload_probes && spec.payload_probes)
                || (!c.qos_low && spec.qos_low);
            assert!(smaller, "candidate must strictly simplify the spec");
            assert!(c.sim_minutes >= 22 && c.server_count() >= 1);
        }
    }

    #[test]
    fn shrinks_to_the_minimal_failing_shape() {
        // Synthetic bug: "fails" whenever there is at least one switch
        // fault AND the fleet has more than 4 servers. The shrinker must
        // keep exactly one fault and cut the fleet to the boundary.
        let mut spec = ScenarioSpec::generate(1, false);
        spec.switch_faults = vec![
            FaultPlan {
                tier: 0,
                pick: 0,
                kind: 2,
                param_permille: 100,
                from_min: 5,
                until_min: 9,
            };
            3
        ];
        spec.dcs = 2;
        spec.podsets = 2;
        spec.pods_per_podset = 2;
        spec.servers_per_pod = 4;
        let fails = |s: &ScenarioSpec| !s.switch_faults.is_empty() && s.server_count() > 4;
        assert!(fails(&spec), "the synthetic bug must fire on the input");
        let minimal = shrink_with(&spec, fails);
        assert!(fails(&minimal), "shrinking must preserve the failure");
        assert_eq!(minimal.switch_faults.len(), 1, "redundant faults dropped");
        assert!(
            minimal.podset_downs.is_empty()
                && minimal.store_outages.is_empty()
                && minimal.controller_outages.is_empty(),
            "irrelevant fault entries dropped"
        );
        // No halving of any dimension keeps server_count > 4, so the
        // result sits on the boundary: every single edit would pass.
        for c in candidates(&minimal) {
            assert!(!fails(&c), "minimal spec must be locally minimal: {c:?}");
        }
        assert_eq!(minimal.sim_minutes, 22, "duration halved to the floor");
    }

    #[test]
    fn snippet_embeds_a_parseable_spec() {
        let spec = ScenarioSpec::generate(4, true);
        let snippet = regression_snippet(&spec);
        assert!(snippet.contains("fuzz_regression_seed_4"));
        // The JSON between the raw-string fences must round-trip.
        let start = snippet.find(r####"r###""####).unwrap() + 5;
        let end = snippet.find(r####""###"####).unwrap();
        let parsed = ScenarioSpec::from_json(&snippet[start..end]).unwrap();
        assert_eq!(parsed, spec);
    }
}
