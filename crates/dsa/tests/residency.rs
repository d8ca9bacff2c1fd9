//! The durable store's residency rule, read the way an operator reads it:
//! through the `pingmesh_store_resident_records` gauge. After a checkpoint
//! the records held in memory are exactly those of the windows still
//! filling; every frozen, persisted window lives on disk only, and a
//! reopen brings back no more than the live store held.
//!
//! One test in its own binary: the gauge is process-wide, so no other
//! store may publish beside this one.

use pingmesh_dsa::{unique_dir, CosmosStore, DirGuard, StreamName};
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};

/// One 10-minute window, µs.
const W: u64 = 600_000_000;
/// Records per window, and per extent: extents end on window bounds.
const PER_WINDOW: u64 = 100;
/// Windows appended; all but the last freeze.
const WINDOWS: u64 = 6;

fn rec(ts: u64) -> ProbeRecord {
    ProbeRecord {
        ts: SimTime(ts),
        src: ServerId(0),
        dst: ServerId(1 + (ts % 3) as u32),
        src_pod: PodId(0),
        dst_pod: PodId((ts % 2) as u32),
        src_podset: PodsetId(0),
        dst_podset: PodsetId(0),
        src_dc: DcId(0),
        dst_dc: DcId(0),
        kind: ProbeKind::TcpSyn,
        qos: QosClass::High,
        src_port: 40_000,
        dst_port: 8_100,
        outcome: ProbeOutcome::Success {
            rtt: SimDuration::from_micros(200 + ts % 997),
        },
    }
}

/// `PER_WINDOW` time-sorted records of window `w`.
fn window(w: u64) -> Vec<ProbeRecord> {
    (0..PER_WINDOW)
        .map(|i| rec(w * W + i * (W / PER_WINDOW)))
        .collect()
}

fn gauge() -> u64 {
    pingmesh_obs::registry()
        .gauge("pingmesh_store_resident_records")
        .get() as u64
}

#[test]
fn a_checkpoint_leaves_only_the_unfrozen_windows_resident() {
    let dir = unique_dir("residency");
    let _guard = DirGuard::new(dir.clone());
    let s = StreamName { dc: DcId(0) };
    let mut store = CosmosStore::durable(&dir, PER_WINDOW as usize, 1).unwrap();
    for w in 0..WINDOWS {
        assert!(store.append(s, &window(w), SimTime(0)));
    }
    assert_eq!(gauge(), WINDOWS * PER_WINDOW, "nothing persisted yet");

    // The checkpoint persists every extent; the frozen ones give up their
    // records, the last window's extent keeps them.
    store.checkpoint().unwrap();
    assert_eq!(store.frozen_before(), Some(SimTime((WINDOWS - 1) * W)));
    assert_eq!(
        gauge(),
        PER_WINDOW,
        "{} frozen windows evicted",
        WINDOWS - 1
    );
    assert_eq!(gauge(), store.resident_records());

    // A straggler into a frozen window is resident until the checkpoint
    // that persists it.
    assert!(store.append(s, &[rec(W + 7)], SimTime(0)));
    assert_eq!(gauge(), PER_WINDOW + 1);
    store.checkpoint().unwrap();
    assert_eq!(gauge(), PER_WINDOW);

    // The window after freezes the last one; the next checkpoint evicts
    // it, though its segment was written before.
    assert!(store.append(s, &window(WINDOWS), SimTime(0)));
    store.checkpoint().unwrap();
    assert_eq!(gauge(), PER_WINDOW);
    let everything = store.merged_window_aggregate(SimTime(0), SimTime((WINDOWS + 1) * W));

    // Reopened, the store holds the same few records and the same
    // partials.
    drop(store);
    let store = CosmosStore::durable(&dir, PER_WINDOW as usize, 1).unwrap();
    assert_eq!(
        gauge(),
        PER_WINDOW,
        "recovery rehydrates only the open window"
    );
    assert_eq!(
        store.merged_window_aggregate(SimTime(0), SimTime((WINDOWS + 1) * W)),
        everything
    );
}
