//! `pingmesh-fuzz` — seeded scenario fuzzing of the sim pipeline.
//!
//! ```text
//! pingmesh-fuzz [--seeds N] [--start S] [--smoke]
//!               [--out target/telemetry/fuzz.json]
//! ```
//!
//! Runs `N` seeded scenarios (seeds `S..S+N`) through the full pipeline
//! and checks every invariant oracle after each run (see the
//! `pingmesh-check` crate). `--smoke` bounds scenario sizes for the CI
//! gate (`scripts/ci.sh --smoke fuzz`). The first few seeds are run
//! twice and their digests compared, so a nondeterministic pipeline
//! fails the campaign even when every oracle passes.
//!
//! On a violation, the failing spec is shrunk to a (locally) minimal
//! still-failing spec and printed as a ready-to-paste regression test;
//! pin that test in the crate that owns the bug. Exit status is 0 only
//! for a fully green, deterministic campaign.

use pingmesh::check::{regression_snippet, run_scenario, shrink, RunReport, ScenarioSpec};
use std::io::Write as _;

/// Seeds re-run to cross-check run-to-run determinism.
const DETERMINISM_SEEDS: u64 = 3;

struct Args {
    seeds: u64,
    start: u64,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 50,
        start: 0,
        smoke: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start" => args.start = value("--start")?.parse().map_err(|e| format!("{e}"))?,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

#[derive(serde::Serialize)]
struct Telemetry {
    scenarios: u64,
    violations: u64,
    deterministic: bool,
    probes_run: u64,
    records_stored: u64,
    reports: Vec<RunReport>,
}

fn write_telemetry(path: &str, reports: &[RunReport], deterministic: bool) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let body = Telemetry {
        scenarios: reports.len() as u64,
        violations: reports.iter().map(|r| r.violations.len() as u64).sum(),
        deterministic,
        probes_run: reports.iter().map(|r| r.probes_run).sum(),
        records_stored: reports.iter().map(|r| r.records_stored).sum(),
        reports: reports.to_vec(),
    };
    match std::fs::File::create(path) {
        Ok(mut f) => {
            let _ = writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(&body).expect("reports serialize")
            );
            eprintln!("telemetry -> {path}");
        }
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pingmesh-fuzz: {e}");
            std::process::exit(2);
        }
    };

    let wall = std::time::Instant::now();
    let mut reports: Vec<RunReport> = Vec::with_capacity(args.seeds as usize);
    let mut first_failure: Option<ScenarioSpec> = None;
    let mut deterministic = true;

    for seed in args.start..args.start + args.seeds {
        let spec = ScenarioSpec::generate(seed, args.smoke);
        let report = run_scenario(&spec);
        if seed - args.start < DETERMINISM_SEEDS {
            let again = run_scenario(&spec);
            if again.digest != report.digest {
                deterministic = false;
                eprintln!(
                    "seed {seed}: NONDETERMINISTIC (digest {:#018x} vs {:#018x})",
                    report.digest, again.digest
                );
            }
        }
        if report.violations.is_empty() {
            eprintln!(
                "seed {seed}: ok ({} probes, {} stored, {} rows)",
                report.probes_run, report.records_stored, report.sla_rows
            );
        } else {
            eprintln!("seed {seed}: {} VIOLATIONS", report.violations.len());
            for v in &report.violations {
                eprintln!("  [{}] {}", v.oracle, v.detail);
            }
            if first_failure.is_none() {
                first_failure = Some(spec);
            }
        }
        reports.push(report);
    }

    let violations: u64 = reports.iter().map(|r| r.violations.len() as u64).sum();
    eprintln!(
        "fuzz: {} scenarios, {} violations, {:.1}s",
        reports.len(),
        violations,
        wall.elapsed().as_secs_f64()
    );

    if let Some(path) = &args.out {
        write_telemetry(path, &reports, deterministic);
    }

    if let Some(spec) = first_failure {
        eprintln!("shrinking first failing seed {} ...", spec.seed);
        let minimal = shrink(&spec);
        eprintln!("minimal failing spec:\n{}", minimal.to_json());
        eprintln!("--- paste as a regression test ---");
        println!("{}", regression_snippet(&minimal));
        std::process::exit(1);
    }
    if !deterministic {
        std::process::exit(1);
    }
}
