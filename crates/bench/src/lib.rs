//! Shared scaffolding for the experiment harness.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md §4 for the index). The
//! helpers here build the standard scenarios, fold store chunks into
//! aggregates without holding raw history, and print paper-vs-measured
//! reports in a consistent format.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use pingmesh_core::dsa::agg::WindowAggregate;
use pingmesh_core::netsim::DcProfile;
use pingmesh_core::topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{LatencyHistogram, SimDuration, SimTime};
use pingmesh_core::{Orchestrator, OrchestratorConfig};
use std::sync::Arc;

/// Builds the two-DC scenario used by the latency experiments: DC1 with
/// the throughput-heavy US-West profile, DC2 with the latency-sensitive
/// US-Central profile.
pub fn two_dc_scenario(config: OrchestratorConfig) -> Orchestrator {
    two_dcs(DcSpec::medium, config)
}

/// [`two_dc_scenario`] with both DCs built by `spec`.
fn two_dcs(spec: fn(&str) -> DcSpec, config: OrchestratorConfig) -> Orchestrator {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![spec("DC1 (US West)"), spec("DC2 (US Central)")],
        })
        .expect("valid spec"),
    );
    Orchestrator::new(
        topo,
        vec![DcProfile::us_west(), DcProfile::us_central()],
        ServiceMap::new(),
        config,
    )
}

/// A small single-DC deployment for long-timeline experiments (figures 5,
/// 6, 7): 4 podsets × 4 pods × 4 servers.
pub fn small_dc_spec() -> DcSpec {
    DcSpec {
        name: "DC1".into(),
        podsets: 4,
        pods_per_podset: 4,
        servers_per_pod: 4,
        leaves_per_podset: 2,
        spines: 4,
        borders: 2,
    }
}

/// Runs the orchestrator in chunks, folding each chunk's records into one
/// aggregate and retiring raw history so memory stays bounded no matter
/// how long the run is.
///
/// Agents buffer results for up to their upload interval before the store
/// sees them, so the scan trails the clock by one upload interval plus
/// slack; the final chunk drains by running past `until`.
pub fn run_and_aggregate(
    o: &mut Orchestrator,
    until: SimTime,
    chunk: SimDuration,
) -> WindowAggregate {
    let lag = SimDuration::from_mins(11);
    let mut agg = WindowAggregate::default();
    let mut scanned_to = o.now();
    let mut cursor = o.now();
    while cursor < until {
        let next = (cursor + chunk).min(until);
        o.run_until(next);
        let scan_to = (next - lag).max(scanned_to);
        if scan_to > scanned_to {
            // Records expanded one at a time — no intermediate collect.
            let chunks = o
                .pipeline()
                .store
                .scan_all_window_chunks(scanned_to, scan_to);
            agg.merge(&WindowAggregate::build(chunks.records()));
            // Retire with one extra lag of slack so late uploads whose
            // timestamps precede scan_to are never double-counted or lost.
            o.pipeline_mut().store.retire_before(scanned_to - lag);
            scanned_to = scan_to;
        }
        cursor = next;
    }
    // Drain: run past `until` so every record probed before `until` is
    // uploaded, then fold the remainder.
    o.run_until(until + lag);
    let chunks = o.pipeline().store.scan_all_window_chunks(scanned_to, until);
    agg.merge(&WindowAggregate::build(chunks.records()));
    agg
}

/// Initialises observability for an experiment binary: events are
/// enabled and mirrored to **stderr** as one-line logs, so stdout carries
/// only figure data. Call first in every `src/bin/` main.
pub fn init_telemetry(id: &'static str) {
    pingmesh_obs::set_enabled(true);
    pingmesh_obs::install_stderr_sink();
    pingmesh_obs::emit!(Info, "bench", "run_start", "experiment" => id);
}

/// Writes the per-run telemetry manifest — metrics snapshot plus event
/// ring statistics — as JSON under `target/telemetry/<id>.json` (override
/// the directory with `PINGMESH_TELEMETRY_DIR`). Returns the path.
fn write_telemetry_manifest(id: &str) -> std::io::Result<std::path::PathBuf> {
    let dir =
        std::env::var("PINGMESH_TELEMETRY_DIR").unwrap_or_else(|_| "target/telemetry".to_string());
    std::fs::create_dir_all(&dir)?;
    let path = std::path::Path::new(&dir).join(format!("{id}.json"));
    let ring = pingmesh_obs::events();
    let manifest = format!(
        "{{\"experiment\":{},\"events_buffered\":{},\"events_dropped\":{},\"metrics\":{}}}\n",
        pingmesh_obs::encode::json_string(id),
        ring.len(),
        ring.dropped(),
        pingmesh_obs::encode::snapshot_to_json(&pingmesh_obs::registry().snapshot()),
    );
    std::fs::write(&path, manifest)?;
    Ok(path)
}

/// Finishes an experiment run: writes the telemetry manifest and logs the
/// outcome (to stderr, via the event sink). Call last in every main.
pub fn finish_telemetry(id: &'static str) {
    match write_telemetry_manifest(id) {
        Ok(path) => {
            pingmesh_obs::emit!(Info, "bench", "run_finished",
                "experiment" => id, "manifest" => path.display().to_string());
        }
        Err(e) => {
            pingmesh_obs::emit!(Warn, "bench", "manifest_write_failed",
                "experiment" => id, "error" => e.to_string());
        }
    }
}

/// Resident set of this process right now (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Formats a µs latency humanly (µs / ms / s).
pub fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Standard experiment header.
pub fn header(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints one paper-vs-measured comparison row.
pub fn compare_row(what: &str, paper: &str, measured: &str) {
    println!("  {what:<44} paper: {paper:>12}   measured: {measured:>12}");
}

/// The percentiles the paper reports in Figure 4.
pub const FIG4_QUANTILES: [(f64, &str); 6] = [
    (0.50, "P50"),
    (0.90, "P90"),
    (0.99, "P99"),
    (0.999, "P99.9"),
    (0.9999, "P99.99"),
    (1.0, "max"),
];

/// Prints a histogram's quantile table with a label.
pub fn print_quantiles(label: &str, hist: &LatencyHistogram) {
    print!("  {label:<28} n={:<9}", hist.count());
    for (q, name) in FIG4_QUANTILES {
        let v = hist
            .quantile(q)
            .map(|d| fmt_us(d.as_micros()))
            .unwrap_or_else(|| "-".into());
        print!(" {name}={v:<9}");
    }
    println!();
}

/// Renders an ASCII time series: one row per point, with a bar scaled to
/// the max value. Used for the Figure 5/6/7 series.
pub fn print_series(title: &str, points: &[(String, f64)], unit: &str) {
    println!("  {title}");
    let max = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let max = if max <= 0.0 { 1.0 } else { max };
    for (label, v) in points {
        let width = ((v / max) * 48.0).round().max(0.0) as usize;
        println!("    {label:>12}  {v:>12.6} {unit} |{}", "#".repeat(width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_us_ranges() {
        assert_eq!(fmt_us(250), "250us");
        assert_eq!(fmt_us(1_340), "1.34ms");
        assert_eq!(fmt_us(3_000_000), "3.00s");
    }

    #[test]
    fn scenario_builders_work() {
        let o = two_dc_scenario(OrchestratorConfig::default());
        assert_eq!(o.net().topology().dc_count(), 2);
        let spec = small_dc_spec();
        assert_eq!(spec.server_count(), 64);
    }

    #[test]
    fn run_and_aggregate_is_lossless_despite_upload_lag() {
        // Two tiny DCs: the property does not depend on scale.
        let mut o = two_dcs(DcSpec::tiny, OrchestratorConfig::default());
        let until = SimTime::ZERO + SimDuration::from_mins(12);
        let agg = run_and_aggregate(&mut o, until, SimDuration::from_mins(6));
        assert!(agg.record_count > 0);
        // Short run: nothing retired yet, so the store still holds every
        // record with ts < until — the aggregate must match it exactly.
        let expect = o
            .pipeline()
            .store
            .scan_all_window_chunks(SimTime::ZERO, until)
            .records()
            .count() as u64;
        assert_eq!(agg.record_count, expect);
    }
}
