//! The three-phase checkpoint driven through its public API, the way a
//! caller sharing the store behind a lock drives it: plan and commit
//! under the lock, the write with it released while another thread
//! appends, retires and reads. No sleeps, no timing: every interleaving
//! of the write with that thread must recover to the same store.

use parking_lot::Mutex;
use pingmesh_dsa::durable::encode_upload_frame_into;
use pingmesh_dsa::{unique_dir, CosmosStore, DirGuard, StreamName, WindowAggregate};
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::path::Path;
use std::sync::Arc;

/// One 10-minute window, µs.
const W: u64 = 600_000_000;
const CAP: usize = 10;

fn rec(dc: u32, ts: u64) -> ProbeRecord {
    ProbeRecord {
        ts: SimTime(ts),
        src: ServerId(dc * 10),
        dst: ServerId(dc * 10 + 1 + (ts % 3) as u32),
        src_pod: PodId(dc),
        dst_pod: PodId(dc + (ts % 2) as u32),
        src_podset: PodsetId(0),
        dst_podset: PodsetId(0),
        src_dc: DcId(dc),
        dst_dc: DcId(dc),
        kind: ProbeKind::TcpSyn,
        qos: QosClass::High,
        src_port: 40_000,
        dst_port: 8_100,
        outcome: ProbeOutcome::Success {
            rtt: SimDuration::from_micros(200 + ts % 997),
        },
    }
}

/// `n` records of stream `dc`, one a second from `from` µs.
fn batch(dc: u32, from: u64, n: u64) -> Vec<ProbeRecord> {
    (0..n).map(|i| rec(dc, from + i * 1_000_000)).collect()
}

fn append(store: &mut CosmosStore, records: &[ProbeRecord]) {
    let t = records.iter().map(|r| r.ts).max().unwrap();
    let stream = StreamName {
        dc: records[0].src_dc,
    };
    assert!(store.append(stream, records, t));
}

/// Every record in stream-then-append order, and the merged aggregate of
/// every window up to `windows`.
fn contents(store: &CosmosStore, windows: u64) -> (Vec<ProbeRecord>, Vec<WindowAggregate>) {
    let records = store
        .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
        .into_iter()
        .flatten()
        .copied()
        .collect();
    let aggs = (0..windows)
        .map(|k| store.merged_window_aggregate(SimTime(k * W), SimTime((k + 1) * W)))
        .collect();
    (records, aggs)
}

/// Files of each kind in the store directory: (tails, manifests other
/// than `MANIFEST` — temporary ones and pins of replaced ones —, segments).
fn files(dir: &Path) -> (usize, usize, usize) {
    let (mut tails, mut tmps, mut segs) = (0, 0, 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        tails += usize::from(name.starts_with("tail-"));
        tmps += usize::from(name.starts_with("MANIFEST-"));
        segs += usize::from(name.starts_with("seg-"));
    }
    (tails, tmps, segs)
}

#[test]
fn checkpoint_write_races_appends_a_retire_and_reads_then_recovers_bit_equal() {
    let dir = unique_dir("phases");
    let _guard = DirGuard::new(dir.clone());
    let store = Arc::new(Mutex::new(CosmosStore::durable(&dir, CAP, 1).unwrap()));
    let reference = Arc::new(Mutex::new(CosmosStore::new(CAP, 1)));
    let both = |records: &[ProbeRecord]| {
        append(&mut store.lock(), records);
        append(&mut reference.lock(), records);
    };

    // Window 0 in both streams: one extent each gets a segment, then one
    // more fills and seals behind a 7-record unsealed tail.
    for dc in [0, 1] {
        both(&batch(dc, 0, 12));
    }
    store.lock().checkpoint().unwrap();
    for dc in [0, 1] {
        both(&batch(dc, 20_000_000, 15));
    }

    // Plan (locked): the sealed extents of the second batch are fresh,
    // the first batch's are kept, the 7-record tails are lengths only.
    let plan = store.lock().plan_checkpoint().unwrap().expect("durable");

    // Write (unlocked), beside a thread that appends into both streams
    // (sealing the extents that were the tails at plan), retires window 0
    // (every kept and every fresh extent) and reads.
    let racer = {
        let (store, reference) = (Arc::clone(&store), Arc::clone(&reference));
        std::thread::spawn(move || {
            for dc in [0, 1] {
                let records = batch(dc, W, 10);
                append(&mut store.lock(), &records);
                append(&mut reference.lock(), &records);
            }
            store.lock().retire_before(SimTime(W));
            reference.lock().retire_before(SimTime(W));
            let (s, r) = (store.lock(), reference.lock());
            assert_eq!(
                s.merged_window_aggregate(SimTime::ZERO, SimTime(2 * W)),
                r.merged_window_aggregate(SimTime::ZERO, SimTime(2 * W)),
                "a read mid-checkpoint sees the store as it is"
            );
        })
    };
    let written = plan.write().unwrap();
    racer.join().unwrap();

    // Commit (locked). The fresh segments' extents were retired during
    // the write, so theirs are tombstoned like the kept ones.
    let gc = store.lock().commit_checkpoint(written).unwrap();
    assert!(gc.committed());
    gc.run();
    let stats = store.lock().durability_stats().unwrap();
    assert_eq!((stats.segments, stats.tombstones), (0, 4), "{stats:?}");
    let expected = contents(&reference.lock(), 3);
    assert_eq!(contents(&store.lock(), 3), expected);

    // Crash; recover from the files alone.
    drop(store);
    let recovered = CosmosStore::durable(&dir, CAP, 1).unwrap();
    let (records, aggs) = contents(&recovered, 3);
    assert_eq!(records, expected.0, "record for record");
    assert_eq!(aggs, expected.1, "aggregate for aggregate");
    assert_eq!(recovered.record_count(), reference.lock().record_count());
    assert_eq!(
        files(&dir),
        (1, 0, 2),
        "one tail, no temp files, the sealed extents' segments"
    );
}

#[test]
fn a_stale_plan_is_refused_and_its_files_collected() {
    let dir = unique_dir("phases-stale");
    let _guard = DirGuard::new(dir.clone());
    let mut store = CosmosStore::durable(&dir, CAP, 1).unwrap();
    let mut reference = CosmosStore::new(CAP, 1);
    for dc in [0, 1] {
        append(&mut store, &batch(dc, 0, 25));
        append(&mut reference, &batch(dc, 0, 25));
    }

    // A plan, written, then overtaken by a newer plan (that rotates past
    // it and dies unwritten): its commit is refused.
    let written = store.plan_checkpoint().unwrap().unwrap().write().unwrap();
    assert_eq!(
        files(&dir),
        (2, 2, 4),
        "the written plan's tail, manifest and pin, segments"
    );
    drop(store.plan_checkpoint().unwrap());
    let gc = store.commit_checkpoint(written).unwrap();
    assert!(!gc.committed(), "a plan rotated past is stale");
    gc.run();
    assert_eq!(files(&dir), (1, 0, 0), "the refused plan's files are gone");

    // Nothing was lost, and the next checkpoint commits.
    store.checkpoint().unwrap();
    assert_eq!(store.durability_stats().unwrap().segments, 4);
    drop(store);
    let recovered = CosmosStore::durable(&dir, CAP, 1).unwrap();
    assert_eq!(contents(&recovered, 1), contents(&reference, 1));
}

#[test]
fn a_failed_write_leaves_the_frozen_bytes_unsynced_until_a_group_commit() {
    let dir = unique_dir("phases-failed");
    let _guard = DirGuard::new(dir.clone());
    let store = Mutex::new(CosmosStore::durable(&dir, CAP, 1).unwrap());
    append(&mut store.lock(), &batch(0, 0, 25));
    let before = store.lock().durability_stats().unwrap();
    assert!(before.unsynced_bytes > 0);

    // The write phase cannot create its tail file: a directory holds the
    // name. The plan has rotated the WAL; the bytes it froze still count.
    let next = before.wal_seq + 1;
    std::fs::create_dir(dir.join(format!("tail-{next}.log"))).unwrap();
    assert!(CosmosStore::checkpoint_shared(&store, 0).is_err());
    let after = store.lock().durability_stats().unwrap();
    assert_eq!(after.wal_seq, next, "the plan rotated");
    assert_eq!(after.unsynced_bytes, before.unsynced_bytes);
    assert!(after.flush_lag_us > 0 && after.flush_lag_us >= before.flush_lag_us);

    // A group commit covers the frozen file, and a later checkpoint
    // commits; nothing was lost.
    assert!(CosmosStore::sync_wal_shared(&store, 1, u64::MAX).unwrap());
    let synced = store.lock().durability_stats().unwrap();
    assert_eq!((synced.unsynced_bytes, synced.flush_lag_us), (0, 0));
    append(&mut store.lock(), &batch(0, 25_000_000, 10));
    let pass = CosmosStore::checkpoint_shared(&store, 0).unwrap();
    assert!(pass.is_some_and(|p| p.committed));
    drop(store);
    let recovered = CosmosStore::durable(&dir, CAP, 1).unwrap();
    assert_eq!(recovered.record_count(), 35);
}

#[test]
fn a_version_1_directory_opens_to_the_same_records() {
    // Version 1 kept the unsealed tail at the head of `wal-<wal_seq>`
    // and replayed that one file. Built by hand: two tail frames, then
    // an append; a stray older WAL the manifest no longer names; and the
    // orphan a version 1 checkpoint that died before its manifest rename
    // left: the next WAL, headed by a copy of the tail.
    let dir = unique_dir("phases-v1");
    let _guard = DirGuard::new(dir.clone());
    std::fs::create_dir_all(&dir).unwrap();
    let batches = [batch(0, 0, 5), batch(1, 0, 3), batch(0, 10_000_000, 4)];
    let mut wal = Vec::new();
    for b in &batches {
        encode_upload_frame_into(&mut wal, b);
    }
    std::fs::write(dir.join("wal-3.log"), &wal).unwrap();
    let mut stray = Vec::new();
    encode_upload_frame_into(&mut stray, &batch(0, 0, 7));
    std::fs::write(dir.join("wal-2.log"), &stray).unwrap();
    std::fs::write(dir.join("wal-4.log"), &wal).unwrap();
    std::fs::write(
        dir.join("MANIFEST"),
        r#"{"version":1,"boot_id":4,"epoch_hwm":9,"retire_hwm":0,"wal_seq":3,"next_seg":0,"segments":[]}"#,
    )
    .unwrap();

    let mut reference = CosmosStore::new(CAP, 1);
    for b in &batches {
        append(&mut reference, b);
    }
    let store = CosmosStore::durable(&dir, CAP, 1).unwrap();
    assert_eq!(store.boot_id(), 5);
    assert_eq!(contents(&store, 1), contents(&reference, 1));
    // Recovery rewrote it as a version 2 directory, whose live WAL is the
    // orphan's name, emptied; that opens the same.
    assert_eq!(store.durability_stats().unwrap().wal_seq, 4);
    assert_eq!(std::fs::metadata(dir.join("wal-4.log")).unwrap().len(), 0);
    drop(store);
    let again = CosmosStore::durable(&dir, CAP, 1).unwrap();
    assert_eq!(contents(&again, 1), contents(&reference, 1));
}
