//! `pingmesh-top` — live text dashboard for a running collector: polls
//! `GET /metrics` and renders the self-monitoring surface (pipeline
//! stage latencies, data-quality SLOs, per-stream freshness, ingest
//! counters) the way `top` renders processes.
//!
//! ```text
//! pingmesh-top --target 127.0.0.1:8090 [--interval-secs N] [--once]
//! ```
//!
//! `--once` prints a single frame and exits (useful in scripts and
//! tests); otherwise the screen redraws every interval until ^C.

use pingmesh::obs::encode::{parse_prometheus, PromSample};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

fn find<'a>(
    samples: &'a [PromSample],
    name: &str,
    label: Option<(&str, &str)>,
) -> Option<&'a PromSample> {
    samples.iter().find(|s| {
        s.name == name
            && match label {
                None => true,
                Some((k, v)) => s.label(k) == Some(v),
            }
    })
}

fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.1}ms", us / 1_000.0)
    } else {
        format!("{us:.0}us")
    }
}

/// Sums a counter family across all of its label sets.
fn sum_of(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// Renders the durable-store panel: WAL volume and write rate (counter
/// delta against the previous frame), checkpoint/segment churn, records
/// held in memory and segment read-back, IO error and fail-closed
/// counts, and recovery history. Rendered only
/// when the scraped process runs a durable store (WAL counters moved).
fn render_durability(samples: &[PromSample], prev: Option<(&[PromSample], f64)>, out: &mut String) {
    let wal_bytes = sum_of(samples, "pingmesh_store_wal_bytes_total");
    let appends = sum_of(samples, "pingmesh_store_wal_appends_total");
    if wal_bytes == 0.0 && appends == 0.0 {
        return;
    }
    let wal_records = sum_of(samples, "pingmesh_store_wal_records_total");
    let rate = prev
        .filter(|(_, dt)| *dt > 0.0)
        .map(|(p, dt)| (wal_bytes - sum_of(p, "pingmesh_store_wal_bytes_total")).max(0.0) / dt);
    let _ = writeln!(
        out,
        "\n  durability   wal {} in {appends:.0} appends ({wal_records:.0} records)   write {}",
        fmt_bytes(wal_bytes),
        rate.map_or("-".into(), |r| format!("{}/s", fmt_bytes(r))),
    );
    let ckpts = sum_of(samples, "pingmesh_store_checkpoints_total");
    let seg_w = sum_of(samples, "pingmesh_store_segments_written_total");
    let seg_d = sum_of(samples, "pingmesh_store_segments_deleted_total");
    let recoveries = sum_of(samples, "pingmesh_store_recoveries_total");
    let replayed = sum_of(samples, "pingmesh_store_recovered_records_total");
    let _ = writeln!(
        out,
        "  checkpoints {ckpts:.0}   segments +{seg_w:.0}/-{seg_d:.0}   recoveries {recoveries:.0} ({replayed:.0} records replayed)",
    );
    // What the store holds in memory, and what it has read back from the
    // segments of evicted extents (scans, refolds, recovery).
    let resident = sum_of(samples, "pingmesh_store_resident_records");
    let reads = sum_of(samples, "pingmesh_store_segment_reads_total");
    let read_bytes = sum_of(samples, "pingmesh_store_segment_read_bytes_total");
    let _ = writeln!(
        out,
        "  residency    {resident:.0} records resident   segment reads {reads:.0} ({})",
        fmt_bytes(read_bytes),
    );
    let io_err = sum_of(samples, "pingmesh_store_io_errors_total");
    let io_retry = sum_of(samples, "pingmesh_store_io_retries_total");
    let failed = sum_of(samples, "pingmesh_store_wal_failed_closed_total");
    let truncated = sum_of(samples, "pingmesh_store_wal_truncated_total");
    let corrupt = sum_of(samples, "pingmesh_store_wal_corrupt_entries_total");
    let _ = writeln!(
        out,
        "  io errors {io_err:.0} (retries {io_retry:.0}, failed-closed {failed:.0})   wal frames truncated {truncated:.0}, corrupt {corrupt:.0}",
    );
    // Store-lock contention: what uploads wait, what of an upload's hold
    // is its WAL write and its fold, what checkpoints hold (plan +
    // commit), and how long they write with the lock released.
    let quantiles = |name: &str| {
        let q = |suffix: &str| {
            find(samples, &format!("{name}_{suffix}"), None).map_or("-".into(), |s| fmt_us(s.value))
        };
        format!("p50 {} p99 {}", q("p50_us"), q("p99_us"))
    };
    let _ = writeln!(
        out,
        "  store lock   upload wait {}   wal append {}   fold {}   checkpoint held {}   checkpoint write {}",
        quantiles("pingmesh_realmode_upload_lock_wait_us"),
        quantiles("pingmesh_store_wal_append_us"),
        quantiles("pingmesh_store_fold_us"),
        quantiles("pingmesh_store_checkpoint_lock_held_us"),
        quantiles("pingmesh_store_checkpoint_write_us"),
    );
}

/// Renders the query/serving-tier panel: live QPS (needs the previous
/// frame for the counter delta), cache hit ratio split by entry kind,
/// conditional-GET (304) ratio, and per-route latency. Rendered only
/// when the scraped process actually runs a serve tier.
fn render_serve(samples: &[PromSample], prev: Option<(&[PromSample], f64)>, out: &mut String) {
    let reqs = sum_of(samples, "pingmesh_serve_requests_total");
    if reqs == 0.0 {
        return;
    }
    let qps = prev
        .filter(|(_, dt)| *dt > 0.0)
        .map(|(p, dt)| (reqs - sum_of(p, "pingmesh_serve_requests_total")).max(0.0) / dt);
    let hits = sum_of(samples, "pingmesh_serve_cache_hits_total");
    let misses = sum_of(samples, "pingmesh_serve_cache_misses_total");
    let hit_ratio = if hits + misses > 0.0 {
        format!("{:.2}%", 100.0 * hits / (hits + misses))
    } else {
        "-".into()
    };
    let frozen_hits = find(
        samples,
        "pingmesh_serve_cache_hits_total",
        Some(("kind", "frozen")),
    )
    .map_or(0.0, |s| s.value);
    let frozen_misses = find(
        samples,
        "pingmesh_serve_cache_misses_total",
        Some(("kind", "frozen")),
    )
    .map_or(0.0, |s| s.value);
    let frozen_ratio = if frozen_hits + frozen_misses > 0.0 {
        format!(
            "{:.2}%",
            100.0 * frozen_hits / (frozen_hits + frozen_misses)
        )
    } else {
        "-".into()
    };
    let notmod = sum_of(samples, "pingmesh_serve_not_modified_total");
    let inval = sum_of(samples, "pingmesh_serve_cache_invalidations_total");
    let _ = writeln!(
        out,
        "\n  serve tier   qps {}   requests {reqs:.0}",
        qps.map_or("-".into(), |q| format!("{q:.0}")),
    );
    let _ = writeln!(
        out,
        "  cache hit {hit_ratio} (frozen {frozen_ratio})   304 ratio {:.1}%   invalidations {inval:.0}",
        if reqs > 0.0 { 100.0 * notmod / reqs } else { 0.0 },
    );
    let _ = writeln!(out, "  route      reqs       p50        p99");
    for route in ["windows", "cdf", "heatmap", "sla", "metrics", "other"] {
        let sel = Some(("route", route));
        let n = find(samples, "pingmesh_serve_requests_total", sel).map_or(0.0, |s| s.value);
        if n == 0.0 {
            continue;
        }
        let p50 = find(samples, "pingmesh_serve_request_us_p50_us", sel).map(|s| s.value);
        let p99 = find(samples, "pingmesh_serve_request_us_p99_us", sel).map(|s| s.value);
        let _ = writeln!(
            out,
            "  {route:<10} {n:<10.0} {:<10} {}",
            p50.map_or("-".into(), fmt_us),
            p99.map_or("-".into(), fmt_us),
        );
    }
}

/// Renders the auto-mitigation panel: lifecycle totals (drains,
/// verified un-drains, escalations, verification attempts), the state
/// machine's transition counts, findings by detector kind, and drains
/// blocked by a guard. Rendered only when the scraped process has ever
/// reported a finding to the mitigation engine.
fn render_mitigation(samples: &[PromSample], out: &mut String) {
    let findings = sum_of(samples, "pingmesh_mitigation_findings_total");
    let transitions = sum_of(samples, "pingmesh_mitigation_transitions_total");
    if findings == 0.0 && transitions == 0.0 {
        return;
    }
    let drains = sum_of(samples, "pingmesh_mitigation_drains_total");
    let undrains = sum_of(samples, "pingmesh_mitigation_undrains_total");
    let escalations = sum_of(samples, "pingmesh_mitigation_escalations_total");
    let attempts = sum_of(samples, "pingmesh_mitigation_verify_attempts_total");
    let _ = writeln!(
        out,
        "\n  mitigation   drains {drains:.0}   undrained {undrains:.0}   escalations {escalations:.0}   verify attempts {attempts:.0}",
    );
    // Transition counts in state-machine order; zero rows are skipped.
    let mut line = String::from("  transitions ");
    for to in ["pending", "drained", "verifying", "undrained", "escalated"] {
        let n = find(
            samples,
            "pingmesh_mitigation_transitions_total",
            Some(("to", to)),
        )
        .map_or(0.0, |s| s.value);
        if n > 0.0 {
            let _ = write!(line, " →{to} {n:.0} ");
        }
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let mut line = String::from("  findings    ");
    for s in samples
        .iter()
        .filter(|s| s.name == "pingmesh_mitigation_findings_total")
    {
        let kind = s.label("kind").unwrap_or("?");
        let _ = write!(line, " {kind} {:.0} ", s.value);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let blocked = sum_of(samples, "pingmesh_mitigation_blocked_total");
    if blocked > 0.0 {
        let mut line = String::from("  blocked     ");
        for s in samples
            .iter()
            .filter(|s| s.name == "pingmesh_mitigation_blocked_total")
        {
            let reason = s.label("reason").unwrap_or("?");
            let _ = write!(line, " {reason} {:.0} ", s.value);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
}

/// Renders one dashboard frame from a parsed scrape. `prev` is the
/// previous frame's samples and its age in seconds, for counter-delta
/// rates (serve QPS); the first frame passes `None`.
fn render(samples: &[PromSample], target: &str, prev: Option<(&[PromSample], f64)>) -> String {
    let mut out = String::new();

    let uptime = find(samples, "pingmesh_uptime_seconds", None).map_or(0.0, |s| s.value);
    let build = find(samples, "pingmesh_build_info", None)
        .map(|s| {
            s.labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_else(|| "unknown".into());
    let _ = writeln!(out, "pingmesh-top — {target}  up {uptime:.0}s  [{build}]");

    let _ = writeln!(out, "\n  SLO          value     healthy  burn");
    let mut any = false;
    for s in samples.iter().filter(|s| s.name == "pingmesh_slo_value") {
        let Some(slo) = s.label("slo") else { continue };
        any = true;
        let healthy = find(samples, "pingmesh_slo_healthy", Some(("slo", slo)))
            .is_some_and(|h| h.value > 0.0);
        let burn =
            find(samples, "pingmesh_slo_burn_rate", Some(("slo", slo))).map_or(0.0, |b| b.value);
        // Age-valued SLOs (µs, lower is better) vs ratio-valued ones.
        let value = if slo == "freshness" || slo == "wal_flush_lag" {
            fmt_us(s.value)
        } else {
            format!("{:.1}%", s.value * 100.0)
        };
        let _ = writeln!(
            out,
            "  {slo:<12} {value:<9} {}       {burn:.2}",
            if healthy { "ok " } else { "DEG" }
        );
    }
    if !any {
        let _ = writeln!(out, "  (no SLOs evaluated yet)");
    }

    let _ = writeln!(out, "\n  stage      spans      p50        p99");
    for stage in pingmesh::obs::trace::STAGES {
        let sel = Some(("stage", stage));
        let spans = find(samples, "pingmesh_stage_duration_us_count", sel).map_or(0.0, |s| s.value);
        let p50 = find(samples, "pingmesh_stage_duration_us_p50_us", sel).map(|s| s.value);
        let p99 = find(samples, "pingmesh_stage_duration_us_p99_us", sel).map(|s| s.value);
        let _ = writeln!(
            out,
            "  {stage:<10} {spans:<10.0} {:<10} {}",
            p50.map_or("-".into(), fmt_us),
            p99.map_or("-".into(), fmt_us),
        );
    }

    let fresh: Vec<&PromSample> = samples
        .iter()
        .filter(|s| s.name == "pingmesh_dsa_freshness_us")
        .collect();
    if !fresh.is_empty() {
        let _ = writeln!(out, "\n  stream freshness");
        for s in fresh {
            let stream = s.label("stream").unwrap_or("?");
            let _ = writeln!(out, "  dc{stream:<4} {}", fmt_us(s.value));
        }
    }

    // Ingest counters: sum each interesting family across its label sets.
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for s in samples {
        if s.name.ends_with("_total")
            && (s.name.contains("record") || s.name.contains("request") || s.name.contains("probe"))
        {
            *totals.entry(s.name.as_str()).or_insert(0.0) += s.value;
        }
    }
    if !totals.is_empty() {
        let _ = writeln!(out, "\n  counters");
        for (name, v) in totals {
            let _ = writeln!(out, "  {name:<44} {v:.0}");
        }
    }

    render_durability(samples, prev, &mut out);
    render_mitigation(samples, &mut out);
    render_serve(samples, prev, &mut out);
    out
}

async fn scrape(target: &str) -> Result<String, String> {
    use pingmesh::httpx::{call, Request, DEFAULT_IO_TIMEOUT};
    let resp = call(target, &Request::get("/metrics"), DEFAULT_IO_TIMEOUT)
        .await
        .map_err(|e| format!("GET {target}/metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /metrics: HTTP {}", resp.status));
    }
    String::from_utf8(resp.body).map_err(|e| format!("non-utf8 exposition: {e}"))
}

fn main() {
    let mut target = "127.0.0.1:8090".to_string();
    let mut interval = 2u64;
    let mut once = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--target" => target = it.next().expect("--target expects ADDR"),
            "--interval-secs" => {
                interval = it
                    .next()
                    .expect("--interval-secs expects N")
                    .parse()
                    .expect("numeric interval")
            }
            "--once" => once = true,
            "--help" | "-h" => {
                println!("usage: pingmesh-top --target ADDR [--interval-secs N] [--once]");
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("runtime");
    rt.block_on(async {
        let mut prev: Option<(Vec<PromSample>, std::time::Instant)> = None;
        loop {
            let frame = match scrape(&target).await {
                Ok(text) => {
                    let samples = parse_prometheus(&text);
                    let now = std::time::Instant::now();
                    let frame = render(
                        &samples,
                        &target,
                        prev.as_ref()
                            .map(|(p, t)| (p.as_slice(), now.duration_since(*t).as_secs_f64())),
                    );
                    prev = Some((samples, now));
                    frame
                }
                Err(e) if once => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
                Err(e) => format!("pingmesh-top — {target}: {e} (retrying)\n"),
            };
            if once {
                print!("{frame}");
                return;
            }
            // ANSI clear + home, like top(1).
            print!("\x1b[2J\x1b[H{frame}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            tokio::time::sleep(Duration::from_secs(interval)).await;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPO: &str = r#"# TYPE pingmesh_uptime_seconds gauge
pingmesh_uptime_seconds 12.5
pingmesh_build_info{version="0.1.0",profile="release"} 1
pingmesh_slo_value{slo="coverage"} 0.97
pingmesh_slo_healthy{slo="coverage"} 1
pingmesh_slo_burn_rate{slo="coverage"} 0
pingmesh_slo_value{slo="freshness"} 1500000
pingmesh_slo_healthy{slo="freshness"} 0
pingmesh_slo_burn_rate{slo="freshness"} 1.25
pingmesh_stage_duration_us_count{stage="probe"} 42
pingmesh_stage_duration_us_p50_us{stage="probe"} 800
pingmesh_stage_duration_us_p99_us{stage="probe"} 2500000
pingmesh_dsa_freshness_us{stream="0"} 52000
pingmesh_realmode_records_total{dc="0"} 1000
pingmesh_realmode_records_total{dc="1"} 500
bogus line that is not a sample
"#;

    #[test]
    fn parser_extracts_names_labels_values() {
        let samples = parse_prometheus(EXPO);
        let probe = find(
            &samples,
            "pingmesh_stage_duration_us_count",
            Some(("stage", "probe")),
        )
        .expect("probe count");
        assert_eq!(probe.value, 42.0);
        let build = find(&samples, "pingmesh_build_info", None).expect("build info");
        assert_eq!(build.label("profile"), Some("release"));
        assert!(find(&samples, "bogus", None).is_none());
    }

    #[test]
    fn labels_with_escapes_survive() {
        let samples = parse_prometheus(r#"m{a="x\"y",b="z"} 1"#);
        assert_eq!(
            samples[0].labels,
            vec![("a".into(), "x\"y".into()), ("b".into(), "z".into())]
        );
    }

    #[test]
    fn render_shows_slos_stages_and_counter_sums() {
        let frame = render(&parse_prometheus(EXPO), "test:1", None);
        assert!(
            frame.contains("up 12s") || frame.contains("up 13s"),
            "{frame}"
        );
        assert!(frame.contains("coverage"), "{frame}");
        assert!(frame.contains("97.0%"), "{frame}");
        assert!(frame.contains("DEG"), "{frame}"); // degraded freshness
        assert!(frame.contains("1.50s"), "{frame}"); // freshness value in seconds
        for stage in pingmesh::obs::trace::STAGES {
            assert!(frame.contains(stage), "missing stage {stage}: {frame}");
        }
        assert!(frame.contains("2.50s"), "p99 formatted: {frame}");
        // Per-dc records summed across label sets.
        assert!(frame.contains("pingmesh_realmode_records_total"), "{frame}");
        assert!(frame.contains("1500"), "{frame}");
        // No serve, durable-store, or mitigation samples scraped — all
        // three panels hidden.
        assert!(!frame.contains("serve tier"), "{frame}");
        assert!(!frame.contains("durability"), "{frame}");
        assert!(!frame.contains("mitigation"), "{frame}");
    }

    const MITIGATION_EXPO: &str = r#"pingmesh_uptime_seconds 300
pingmesh_mitigation_findings_total{kind="blackhole"} 4
pingmesh_mitigation_findings_total{kind="silent_drop"} 2
pingmesh_mitigation_transitions_total{to="pending"} 3
pingmesh_mitigation_transitions_total{to="drained"} 3
pingmesh_mitigation_transitions_total{to="verifying"} 4
pingmesh_mitigation_transitions_total{to="undrained"} 2
pingmesh_mitigation_transitions_total{to="escalated"} 1
pingmesh_mitigation_blocked_total{reason="cooldown"} 1
pingmesh_mitigation_blocked_total{reason="tier_budget"} 1
pingmesh_mitigation_drains_total 3
pingmesh_mitigation_undrains_total 2
pingmesh_mitigation_escalations_total 2
pingmesh_mitigation_verify_attempts_total 4
"#;

    #[test]
    fn mitigation_panel_reports_lifecycle_transitions_and_guards() {
        let frame = render(&parse_prometheus(MITIGATION_EXPO), "test:1", None);
        assert!(
            frame.contains(
                "mitigation   drains 3   undrained 2   escalations 2   verify attempts 4"
            ),
            "{frame}"
        );
        // Transitions render in state-machine order with counts.
        assert!(
            frame.contains(
                "transitions  →pending 3  →drained 3  →verifying 4  →undrained 2  →escalated 1"
            ),
            "{frame}"
        );
        assert!(
            frame.contains("findings     blackhole 4  silent_drop 2"),
            "{frame}"
        );
        assert!(
            frame.contains("blocked      cooldown 1  tier_budget 1"),
            "{frame}"
        );
    }

    const DURABLE_EXPO: &str = r#"pingmesh_uptime_seconds 60
pingmesh_slo_value{slo="wal_flush_lag"} 250000
pingmesh_slo_healthy{slo="wal_flush_lag"} 1
pingmesh_slo_burn_rate{slo="wal_flush_lag"} 0.12
pingmesh_store_wal_bytes_total 2097152
pingmesh_store_wal_appends_total 40
pingmesh_store_wal_records_total 400000
pingmesh_store_checkpoints_total 7
pingmesh_store_segments_written_total 12
pingmesh_store_segments_deleted_total 3
pingmesh_store_recoveries_total 1
pingmesh_store_recovered_records_total 250000
pingmesh_store_resident_records 125000
pingmesh_store_segment_reads_total 9
pingmesh_store_segment_read_bytes_total 3145728
pingmesh_store_io_errors_total 5
pingmesh_store_io_retries_total 4
pingmesh_store_wal_failed_closed_total 1
pingmesh_store_wal_truncated_total 1
pingmesh_store_wal_corrupt_entries_total 0
pingmesh_realmode_upload_lock_wait_us_p50_us 12
pingmesh_realmode_upload_lock_wait_us_p99_us 310000
pingmesh_store_wal_append_us_p50_us 45
pingmesh_store_wal_append_us_p99_us 2100
pingmesh_store_fold_us_p50_us 230
pingmesh_store_fold_us_p99_us 610
pingmesh_store_checkpoint_lock_held_us_p50_us 140
pingmesh_store_checkpoint_lock_held_us_p99_us 370
pingmesh_store_checkpoint_write_us_p50_us 95000
pingmesh_store_checkpoint_write_us_p99_us 210000
"#;

    #[test]
    fn durability_panel_reports_wal_churn_and_recovery_history() {
        let samples = parse_prometheus(DURABLE_EXPO);

        // First frame: volumes and counts render, write rate has no delta.
        let first = render(&samples, "test:1", None);
        assert!(
            first.contains("durability   wal 2.0 MiB in 40 appends (400000 records)   write -"),
            "{first}"
        );
        assert!(
            first.contains(
                "checkpoints 7   segments +12/-3   recoveries 1 (250000 records replayed)"
            ),
            "{first}"
        );
        assert!(
            first.contains("residency    125000 records resident   segment reads 9 (3.0 MiB)"),
            "{first}"
        );
        assert!(
            first.contains(
                "io errors 5 (retries 4, failed-closed 1)   wal frames truncated 1, corrupt 0"
            ),
            "{first}"
        );
        assert!(
            first.contains(
                "store lock   upload wait p50 12us p99 310.0ms   wal append p50 45us p99 2.1ms   fold p50 230us p99 610us   checkpoint held p50 140us p99 370us   checkpoint write p50 95.0ms p99 210.0ms"
            ),
            "{first}"
        );
        // The flush-lag SLO is age-valued: µs formatting, not a percent.
        assert!(first.contains("wal_flush_lag 250.0ms"), "{first}");

        // Second frame, 2s later, 1 MiB more WAL: 512 KiB/s write rate.
        let later = parse_prometheus(&DURABLE_EXPO.replace(
            "pingmesh_store_wal_bytes_total 2097152",
            "pingmesh_store_wal_bytes_total 3145728",
        ));
        let second = render(&later, "test:1", Some((samples.as_slice(), 2.0)));
        assert!(second.contains("write 512.0 KiB/s"), "{second}");
    }

    const SERVE_EXPO: &str = r#"pingmesh_uptime_seconds 30
pingmesh_serve_requests_total{route="sla"} 800
pingmesh_serve_requests_total{route="cdf"} 200
pingmesh_serve_request_us_p50_us{route="sla"} 900
pingmesh_serve_request_us_p99_us{route="sla"} 4200
pingmesh_serve_cache_hits_total{kind="frozen"} 950
pingmesh_serve_cache_hits_total{kind="hot"} 30
pingmesh_serve_cache_misses_total{kind="frozen"} 10
pingmesh_serve_cache_misses_total{kind="hot"} 10
pingmesh_serve_cache_invalidations_total 3
pingmesh_serve_not_modified_total 700
"#;

    #[test]
    fn serve_panel_reports_cache_ratios_and_qps_from_counter_deltas() {
        let samples = parse_prometheus(SERVE_EXPO);

        // First frame: ratios render, QPS has no delta yet.
        let first = render(&samples, "test:1", None);
        assert!(first.contains("serve tier   qps -"), "{first}");
        assert!(first.contains("requests 1000"), "{first}");
        // 980 hits / 1000 lookups overall; 950/960 on the frozen shard.
        assert!(
            first.contains("cache hit 98.00% (frozen 98.96%)"),
            "{first}"
        );
        assert!(first.contains("304 ratio 70.0%"), "{first}");
        assert!(first.contains("invalidations 3"), "{first}");
        // Per-route table: sla has latency samples, cdf has none.
        assert!(
            first.contains("sla        800        900us      4.2ms"),
            "{first}"
        );
        assert!(
            first.contains("cdf        200        -          -"),
            "{first}"
        );
        assert!(
            !first.contains("heatmap"),
            "zero-count routes hidden: {first}"
        );

        // Second frame, 2s later, 1000 more requests: qps = 500.
        let later = parse_prometheus(&SERVE_EXPO.replace(
            r#"pingmesh_serve_requests_total{route="sla"} 800"#,
            r#"pingmesh_serve_requests_total{route="sla"} 1800"#,
        ));
        let second = render(&later, "test:1", Some((samples.as_slice(), 2.0)));
        assert!(second.contains("serve tier   qps 500"), "{second}");
    }
}
