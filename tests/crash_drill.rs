//! End-to-end crash drill over real sockets.
//!
//! A miniature fleet (controller + durable collector + one serve
//! replica) ingests real uploads, then the drill crashes the collector
//! at the two nastiest points and proves the durability story:
//!
//! 1. **Kill mid-append** — a torn, never-acknowledged WAL frame is
//!    left at the log tail, in-memory state is discarded, and the store
//!    rebuilds from manifest + segments + WAL replay alone. Every
//!    acknowledged record survives; the torn tail is truncated away;
//!    window aggregates come back bit-identical; the serve tier
//!    revalidates (boot-id-salted fingerprints) and serves the same
//!    dashboard bytes.
//! 2. **Kill mid-compaction** — a real checkpoint is planned and written
//!    but never committed: its segments and manifest exist on disk
//!    beside a rotated WAL while the manifest still names the old
//!    generation. Recovery follows the manifest, replays both WALs,
//!    collects the orphans, and again loses nothing.
//!
//! After each recovery the same agents keep probing and uploading,
//! proving the store comes back writable end to end.

use pingmesh::controller::GeneratorConfig;
use pingmesh::realmode::{ClusterOptions, LocalCluster, RealAgent};
use pingmesh::topology::TopologySpec;
use pingmesh::types::{ProbeRecord, ServerId, SimTime};
use std::time::Duration;

/// One 10-minute partial window in microseconds; agent-epoch record
/// timestamps land well inside the first window during the drill.
const W: u64 = 600_000_000;

/// A schedule step longer than any interval the default generator
/// assigns: after `skip(STEP)` every installed entry is due once.
const STEP: Duration = Duration::from_secs(180);

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn crash_drill_mid_append_and_mid_compaction_lose_nothing_acked() {
    let cluster = LocalCluster::start_with(
        TopologySpec::single_tiny(),
        GeneratorConfig::default(),
        ClusterOptions {
            serve_replicas: 1,
            ..ClusterOptions::default()
        },
    )
    .await;

    // The collector is durable by default: WAL + segments exist before
    // the first upload arrives.
    assert!(
        cluster.collector().store().lock().durable_dir().is_some(),
        "collector must be durable by default"
    );

    // ── Baseline: agents probe and flush synchronously ───────────────
    let mut agents: Vec<RealAgent> = [ServerId(0), ServerId(3)]
        .into_iter()
        .map(|s| cluster.agent(s))
        .collect();
    for a in &mut agents {
        a.poll_controller().await;
        a.skip(STEP);
        assert!(a.probe_due().await > 0, "baseline probes");
        a.flush(true).await;
    }
    let acked = cluster.collector().stats().records;
    assert!(acked > 0, "baseline records stored");

    // Serve tier builds + caches a dashboard body over the hot window.
    let tier = cluster.serve_tier(0);
    let path = format!("/api/sla?from=0&to={W}");
    let before = tier.respond(&pingmesh::httpx::Request::get(&path));
    assert_eq!(before.status, 200);

    let (agg_before, boot_before, torn_sample) = {
        let store = cluster.collector().store().lock();
        let agg = store.merged_window_aggregate(SimTime(0), SimTime(W));
        let sample: ProbeRecord = store
            .scan_all_window_chunks(SimTime(0), SimTime(W))
            .records()
            .next()
            .expect("stored record");
        (agg, store.boot_id(), sample)
    };

    // ── Phase 1: kill mid-append ─────────────────────────────────────
    assert!(cluster
        .collector()
        .crash_and_recover_mid_append(&[torn_sample])
        .expect("recovery must succeed"));
    {
        let store = cluster.collector().store().lock();
        assert_eq!(store.record_count(), acked, "zero acknowledged loss");
        assert_eq!(
            store.merged_window_aggregate(SimTime(0), SimTime(W)),
            agg_before,
            "recovered aggregates are bit-identical"
        );
        assert!(store.boot_id() > boot_before, "recovery bumps the boot id");
        let d = store.durability_stats().expect("durable stats");
        assert!(d.truncated_entries > 0, "torn tail truncated, never served");
    }
    // The dashboard serves the same bytes from the recovered store —
    // rebuilt against the new boot generation, not assumed from cache.
    let after = tier.respond(&pingmesh::httpx::Request::get(&path));
    assert_eq!(after.status, 200);
    assert_eq!(
        after.body, before.body,
        "recovered dashboard bytes identical"
    );

    // Agents keep working against the recovered collector.
    for a in &mut agents {
        a.poll_controller().await;
        a.skip(STEP);
        assert!(a.probe_due().await > 0, "probing after recovery");
        a.flush(true).await;
    }
    let grown = cluster.collector().stats().records;
    assert!(grown > acked, "recovered store accepts new uploads");

    // ── Phase 2: kill mid-compaction ─────────────────────────────────
    let agg_mid = cluster
        .collector()
        .store()
        .lock()
        .merged_window_aggregate(SimTime(0), SimTime(W));
    assert!(cluster
        .collector()
        .crash_and_recover_mid_compaction()
        .expect("recovery must succeed"));
    {
        let store = cluster.collector().store().lock();
        assert_eq!(store.record_count(), grown, "orphaned generation ignored");
        assert_eq!(
            store.merged_window_aggregate(SimTime(0), SimTime(W)),
            agg_mid,
            "aggregates bit-identical across the compaction crash"
        );
    }

    // Still writable end to end after the second recovery.
    for a in &mut agents {
        a.poll_controller().await;
        a.skip(STEP);
        a.probe_due().await;
        a.flush(true).await;
    }
    assert!(
        cluster.collector().stats().records > grown,
        "uploads continue after the second recovery"
    );
}
