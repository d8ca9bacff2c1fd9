//! Structural gates on the DSA's reads, by a counting allocator (a binary
//! of its own because the allocator is process-wide):
//!
//! * A 10-minute tick reads its window's partial in place. Over a window
//!   that one partial covers, `Pipeline::run_tick` allocates less than a
//!   tenth of what a copy of that partial costs — the SLA rows, heatmaps
//!   and findings it builds, not a second aggregate.
//! * A raw scan holds at most one extent's records expanded. Reading a
//!   window chunk by chunk, or record by record, the live heap never grows
//!   by more than one extent at 72 bytes a record, however many extents
//!   the window spans, and taking the scan expands nothing.

use pingmesh_dsa::jobs::{JobKind, JobTick, Pipeline};
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_dsa::{unique_dir, DirGuard};
use pingmesh_topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// `Some(bytes)` while this thread is counting (the test harness's
    /// other threads allocate whenever they like).
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
    /// `Some((live, peak))` bytes while this thread is tracking the live
    /// heap.
    static LIVE: Cell<Option<(i64, i64)>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get().map(|n| n + bytes as u64)));
}

fn note_live(delta: i64) {
    let _ = LIVE.try_with(|c| {
        c.set(c.get().map(|(live, peak)| {
            let live = live + delta;
            (live, peak.max(live))
        }))
    });
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches a `const`-initialised
// thread-local `Cell` only, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes `f` asks the allocator for (`alloc`, `alloc_zeroed`, and the new
/// size of every `realloc`), and its result.
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, T) {
    BYTES.with(|c| c.set(Some(0)));
    let out = f();
    (BYTES.with(|c| c.take()).expect("counting was on"), out)
}

/// How far `f` raised the live heap above where it started, and its result.
fn peak<T>(f: impl FnOnce() -> T) -> (i64, T) {
    LIVE.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (_, peak) = LIVE.with(|c| c.take()).expect("tracking was on");
    (peak, out)
}

#[test]
fn ten_minute_tick_over_one_partial_does_not_copy_it() {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec::medium("DC1")],
        })
        .unwrap(),
    );
    let n = topo.server_count() as u32;
    // Every server probes every tenth one three times in the first window,
    // at RTTs spread over the histogram.
    let mut records = Vec::new();
    for src in 0..n {
        for dst in (src % 10..n).step_by(10) {
            for k in 0..3u64 {
                let (s, d) = (topo.server(ServerId(src)), topo.server(ServerId(dst)));
                records.push(ProbeRecord {
                    ts: SimTime(k * 60_000_000 + src as u64),
                    src: ServerId(src),
                    dst: ServerId(dst),
                    src_pod: s.pod,
                    dst_pod: d.pod,
                    src_podset: s.podset,
                    dst_podset: d.podset,
                    src_dc: s.dc,
                    dst_dc: d.dc,
                    kind: ProbeKind::TcpSyn,
                    qos: QosClass::High,
                    src_port: 40_000,
                    dst_port: 8_100,
                    outcome: ProbeOutcome::Success {
                        rtt: SimDuration::from_micros(100 + (src + 7 * dst) as u64 % 2_000 * k),
                    },
                });
            }
        }
    }
    records.sort_by_key(|r| r.ts);
    let mut store = CosmosStore::with_defaults();
    let stream = StreamName {
        dc: topo.server(ServerId(0)).dc,
    };
    store.append(stream, &records, SimTime::ZERO);
    let mut p = Pipeline::new(topo, ServiceMap::new(), store);
    let (from, to) = (SimTime::ZERO, SimTime::ZERO + SimDuration::from_mins(10));
    assert_eq!(p.store.partials_in(from, to).count(), 1, "one partial");

    let (copy, agg) = allocated(|| p.store.merged_window_aggregate(from, to));
    assert_eq!(agg.record_count, records.len() as u64);
    let (tick, out) = allocated(|| {
        p.run_tick(JobTick {
            kind: JobKind::TenMin,
            window_start: from,
            window_end: to,
        })
    });
    assert_eq!(out.records, records.len() as u64);
    assert!(
        tick * 10 < copy,
        "the tick allocated {tick} B, a copy of its partial {copy} B"
    );
}

const CAP: usize = 5_000;
const EXTENTS: u64 = 40;
/// One extent, expanded.
const ONE_EXTENT: i64 = (CAP * std::mem::size_of::<ProbeRecord>()) as i64;
/// 10 minutes in microseconds.
const W: u64 = 600_000_000;

/// `EXTENTS` full extents of one stream, 100 servers probing 100, one
/// record every 3 ms: they fill the first ten minutes.
fn fill(store: &mut CosmosStore) {
    let records: Vec<ProbeRecord> = (0..CAP as u64 * EXTENTS)
        .map(|i| {
            let (src, dst) = ((i % 100) as u32, (i / 100 % 100) as u32);
            ProbeRecord {
                ts: SimTime(i * 3_000),
                src: ServerId(src),
                dst: ServerId(dst),
                src_pod: PodId(src / 10),
                dst_pod: PodId(dst / 10),
                src_podset: PodsetId(src / 50),
                dst_podset: PodsetId(dst / 50),
                src_dc: DcId(0),
                dst_dc: DcId(0),
                kind: ProbeKind::TcpSyn,
                qos: QosClass::High,
                src_port: 40_000 + (i % 1_000) as u16,
                dst_port: 8_100,
                outcome: ProbeOutcome::Success {
                    rtt: SimDuration::from_micros(200 + i % 300),
                },
            }
        })
        .collect();
    for batch in records.chunks(1_000) {
        assert!(store.append(StreamName { dc: DcId(0) }, batch, SimTime(0)));
    }
}

/// Reads the filled window of `store` both ways, checking the peaks.
fn check_reads(store: &CosmosStore, taking_limit: i64, what: &str) {
    let (taken, scan) = peak(|| {
        store
            .try_scan_all_window_chunks(SimTime(0), SimTime(W))
            .unwrap()
    });
    assert!(
        taken <= taking_limit,
        "{what}: taking the scan peaked at {taken} B"
    );
    assert_eq!(scan.len(), EXTENTS as usize, "{what}: one chunk an extent");
    let (chunked, n) = peak(|| scan.iter().map(|c| c.len()).sum::<usize>());
    assert_eq!(n, CAP * EXTENTS as usize);
    assert!(
        chunked <= ONE_EXTENT,
        "{what}: chunk by chunk peaked at {chunked} B, one extent is {ONE_EXTENT} B"
    );
    let (flat, n) = peak(|| scan.records().count());
    assert_eq!(n, CAP * EXTENTS as usize);
    assert_eq!(flat, 0, "{what}: record by record allocates nothing");
}

#[test]
fn an_in_memory_scan_expands_one_extent_at_a_time() {
    let mut store = CosmosStore::new(CAP, 1);
    fill(&mut store);
    // Taking a resident scan lists its runs, nothing more.
    check_reads(&store, EXTENTS as i64 * 64 + 4_096, "in memory");
}

#[test]
fn a_read_back_scan_holds_its_extents_packed_and_expands_one_at_a_time() {
    let dir = unique_dir("scan-peak");
    let _guard = DirGuard::new(dir.clone());
    let mut store = CosmosStore::durable(&dir, CAP, 1).unwrap();
    fill(&mut store);
    // A record in a later window freezes the filled ones; the checkpoint
    // persists and evicts them.
    let mut late = store
        .scan_all_window_chunks(SimTime(0), SimTime(1))
        .records()
        .next()
        .unwrap();
    late.ts = SimTime(3 * W);
    assert!(store.append(StreamName { dc: DcId(0) }, &[late], SimTime(0)));
    store.checkpoint().unwrap();
    assert_eq!(store.resident_records(), 1, "every filled extent evicted");
    // The read-back records stay packed in the scan. One extent at a time
    // is read back expanded, beside the segment reader's piece buffers
    // (its wire bytes and their decoding, here each as large as the
    // extent); the window expanded would take 72 bytes a record.
    let packed = (CAP as u64 * EXTENTS * 32) as i64;
    let limit = packed + 3 * ONE_EXTENT + 128 * 1_024;
    assert!(limit < EXTENTS as i64 * ONE_EXTENT * 2 / 3);
    check_reads(&store, limit, "read back");
}
