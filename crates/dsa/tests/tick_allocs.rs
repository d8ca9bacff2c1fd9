//! Structural gate: a 10-minute tick reads its window's partial in place.
//! Over a window that one partial covers, `Pipeline::run_tick` allocates
//! less than a tenth of what a copy of that partial costs — the SLA rows,
//! heatmaps and findings it builds, not a second aggregate. A binary of
//! its own because the counting allocator is process-wide.

use pingmesh_dsa::jobs::{JobKind, JobTick, Pipeline};
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_topology::{DcSpec, ServiceMap, Topology, TopologySpec};
use pingmesh_types::{
    ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// `Some(bytes)` while this thread is counting (the test harness's
    /// other threads allocate whenever they like).
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get().map(|n| n + bytes as u64)));
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches a `const`-initialised
// thread-local `Cell` only, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
