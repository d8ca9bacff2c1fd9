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
use std::collections::BTreeMap;
use std::io::ErrorKind;
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
        .records()
        .collect();
    let aggs = (0..windows)
        .map(|k| store.merged_window_aggregate(SimTime(k * W), SimTime((k + 1) * W)))
        .collect();
    (records, aggs)
}

/// The length of every extent, stream by stream: a whole-range scan
/// yields each extent as one chunk.
fn extents(store: &CosmosStore) -> Vec<usize> {
    let chunks = store.scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX));
    chunks.iter().map(|c| c.len()).collect()
}

/// Files of each kind in the store directory: (WALs, manifests other
/// than `MANIFEST` — temporary ones and pins of replaced ones —,
/// segments). Nothing else is ever there.
fn files(dir: &Path) -> (usize, usize, usize) {
    let (mut wals, mut tmps, mut segs) = (0, 0, 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let kind = [
            name.starts_with("wal-"),
            name.starts_with("MANIFEST-"),
            name.starts_with("seg-"),
        ];
        assert!(name == "MANIFEST" || kind.contains(&true), "stray {name}");
        wals += usize::from(kind[0]);
        tmps += usize::from(kind[1]);
        segs += usize::from(kind[2]);
    }
    (wals, tmps, segs)
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

    // Window 0 in both streams: the checkpoint seals each stream's
    // 2-record open extent, so both extents of each stream get a segment.
    // The reference seals where the durable store does.
    for dc in [0, 1] {
        both(&batch(dc, 0, 12));
    }
    store.lock().checkpoint().unwrap();
    reference.lock().checkpoint().unwrap();
    for dc in [0, 1] {
        both(&batch(dc, 20_000_000, 15));
    }

    // Plan (locked): it seals the 5-record open extents; they and the full
    // extents before them are fresh, the first batch's are kept.
    let plan = store.lock().plan_checkpoint().unwrap().expect("durable");
    reference.lock().checkpoint().unwrap();

    // Write (unlocked), beside a thread that appends into both streams
    // (new extents: the plan sealed the old ones), retires window 0
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
    assert_eq!((stats.segments, stats.tombstones), (0, 8), "{stats:?}");
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
        extents(&recovered),
        extents(&reference.lock()),
        "extent for extent"
    );
    assert_eq!(
        files(&dir),
        (1, 0, 2),
        "one WAL, no temp files, a segment for each window-1 extent"
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
        (2, 2, 6),
        "two WALs, the written plan's manifest and pin, a segment per extent"
    );
    drop(store.plan_checkpoint().unwrap());
    let gc = store.commit_checkpoint(written).unwrap();
    assert!(!gc.committed(), "a plan rotated past is stale");
    gc.run();
    assert_eq!(files(&dir), (3, 0, 0), "the refused plan's files are gone");

    // Nothing was lost, and the next checkpoint commits.
    store.checkpoint().unwrap();
    assert_eq!(store.durability_stats().unwrap().segments, 6);
    drop(store);
    let recovered = CosmosStore::durable(&dir, CAP, 1).unwrap();
    assert_eq!(contents(&recovered, 1), contents(&reference, 1));
}

/// Every file in `dir` with its length.
fn listing(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, entry.metadata().unwrap().len())
        })
        .collect()
}

#[test]
fn a_directory_of_another_manifest_version_is_refused_untouched() {
    // Versions 1 and 2 kept each stream's unsealed records outside the
    // segments. This build does not read them: it refuses the directory,
    // naming the version, and collects, truncates and creates nothing.
    for version in [1, 2] {
        let dir = unique_dir("phases-old");
        let _guard = DirGuard::new(dir.clone());
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Vec::new();
        encode_upload_frame_into(&mut wal, &batch(0, 0, 5));
        std::fs::write(dir.join("wal-2.log"), &wal).unwrap();
        std::fs::write(dir.join("wal-3.log"), &wal[..wal.len() - 7]).unwrap();
        std::fs::write(dir.join("seg-9.dat"), b"not a segment").unwrap();
        std::fs::write(dir.join("MANIFEST-3.tmp"), b"{}").unwrap();
        std::fs::write(
            dir.join("MANIFEST"),
            format!(
                r#"{{"version":{version},"boot_id":4,"epoch_hwm":9,"retire_hwm":0,"wal_seq":3,"next_seg":0,"segments":[]}}"#
            ),
        )
        .unwrap();
        let before = listing(&dir);

        let err = CosmosStore::durable(&dir, CAP, 1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string()
                .contains(&format!("manifest version {version} ")),
            "{err}"
        );
        assert_eq!(listing(&dir), before, "the directory is as it was");
    }
}
