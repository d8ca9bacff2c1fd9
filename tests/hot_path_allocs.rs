//! Structural gates: the paths every probe and every upload crosses stay
//! off the allocator — ECMP path resolution, the upload frame codec, the
//! disabled observability path and the unsampled trace path. The JSON
//! codec keeps its gate too: pinglists, stats and `/api` bodies are JSON.
//! A binary of its own because the counting allocator is process-wide.

mod upload_frame;

use pingmesh::dsa::durable::{append_frame_len, decode_upload_frame, encode_upload_frame_into};
use pingmesh::obs;
use pingmesh::topology::{DcSpec, Router, Topology, TopologySpec};
use pingmesh::types::{
    FiveTuple, PingTarget, Pinglist, PinglistEntry, ProbeKind, ProbeOutcome, ProbeRecord, QosClass,
    ServerId, SimDuration, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Mutex;

thread_local! {
    /// `Some(n)` while this thread is counting (the test harness's other
    /// threads allocate whenever they like).
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_call() {
    let _ = CALLS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches a `const`-initialised
// thread-local `Cell` only, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) `f` makes.
fn allocator_calls(f: impl FnOnce()) -> u64 {
    CALLS.with(|c| c.set(Some(0)));
    f();
    CALLS.with(|c| c.take()).expect("counting was on")
}

/// The enabled flag and the tracer are process-global; the two tests that
/// set them take this.
static OBS: Mutex<()> = Mutex::new(());

fn two_medium_dcs() -> Topology {
    Topology::build(TopologySpec {
        dcs: vec![DcSpec::medium("DC1"), DcSpec::medium("DC2")],
    })
    .unwrap()
}

fn record(topo: &Topology, i: u64) -> ProbeRecord {
    let servers = topo.server_count() as u64;
    let src = ServerId((i % servers) as u32);
    let dst = ServerId(((i * 7 + 13) % servers) as u32);
    let (s, d) = (topo.server(src), topo.server(dst));
    ProbeRecord {
        ts: SimTime(i),
        src,
        dst,
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
        outcome: if i.is_multiple_of(1_000) {
            ProbeOutcome::Timeout
        } else {
            ProbeOutcome::Success {
                rtt: SimDuration::from_micros(200 + i % 300),
            }
        },
    }
}

#[test]
fn resolve_never_calls_the_allocator() {
    let topo = two_medium_dcs();
    let router = Router::new(&topo);
    // Every path scope: loopback, intra-pod, intra-podset, intra-DC and
    // inter-DC pairs, with varied ports so ECMP decisions spread.
    let servers: Vec<ServerId> = topo.servers().collect();
    let stride = (servers.len() / 7).max(1);
    let mut port = 32_768u16;
    let cases: Vec<(ServerId, ServerId, FiveTuple)> = (0..2_000usize)
        .map(|i| {
            let a = servers[i % servers.len()];
            let b = servers[(i * stride + i / servers.len()) % servers.len()];
            port = port.wrapping_add(7).max(1_024);
            let tuple = FiveTuple::tcp(topo.ip_of(a), port, topo.ip_of(b), 8_100);
            (a, b, tuple)
        })
        .collect();
    let scopes = |f: fn(&Topology, ServerId, ServerId) -> bool| {
        cases.iter().filter(|(a, b, _)| f(&topo, *a, *b)).count()
    };
    assert!(scopes(|_, a, b| a == b) > 0, "no loopback case");
    assert!(scopes(|t, a, b| a != b && t.server(a).pod == t.server(b).pod) > 0);
    assert!(scopes(|t, a, b| t.server(a).dc != t.server(b).dc) > 0);

    let mut hops = 0usize;
    let calls = allocator_calls(|| {
        for (a, b, tuple) in &cases {
            hops += router.resolve(*a, *b, tuple).hops.len();
        }
    });
    assert!(black_box(hops) > 0);
    assert_eq!(calls, 0, "allocator calls over {} resolves", cases.len());
}

#[test]
fn upload_batch_codec_allocates_nothing_per_record() {
    let topo = two_medium_dcs();
    let batch: Vec<ProbeRecord> = (0..2_000).map(|i| record(&topo, i)).collect();
    let mut body = Vec::with_capacity(batch.len() * 256);
    let calls = allocator_calls(|| serde_json::to_writer(&mut body, &batch).expect("encode"));
    assert_eq!(calls, 0, "encoding into a pre-sized buffer");

    // Decoding may only grow the output `Vec`: a constant, not a share of
    // the records.
    let mut decoded: Vec<ProbeRecord> = Vec::new();
    let calls = allocator_calls(|| decoded = serde_json::from_slice(&body).expect("decode"));
    assert!(
        calls <= 16,
        "{calls} allocator calls decoding 2,000 records"
    );
    assert_eq!(decoded, batch);
}

#[test]
fn upload_frame_encode_never_calls_the_allocator() {
    let batch = upload_frame::records();
    let mut body = Vec::with_capacity(append_frame_len(batch.len()));
    let calls = allocator_calls(|| encode_upload_frame_into(&mut body, &batch));
    assert_eq!(calls, 0, "encoding a frame into a pre-sized buffer");
    assert_eq!(body.len(), append_frame_len(batch.len()));
}

#[test]
fn upload_frame_decode_allocates_only_the_output_vec() {
    let batch = upload_frame::records();
    let body = upload_frame::frame(&batch);
    let mut decoded = Vec::new();
    let calls = allocator_calls(|| decoded = decode_upload_frame(&body).expect("decode"));
    assert_eq!(calls, 1, "decoding {} records", upload_frame::RECORDS);
    assert_eq!(decoded, batch);
}

#[test]
fn upload_frame_with_a_lying_count_is_refused_without_the_allocator() {
    let batch = upload_frame::records();
    let mut body = upload_frame::frame(&batch);
    assert!(body.len() > 128_000);
    // The count claims one record more than the 128 KB body holds, and the
    // checksum is re-sealed so that the count check is what refuses it.
    let count = upload_frame::FIRST_RECORD - 4;
    body[count..count + 4].copy_from_slice(&(batch.len() as u32 + 1).to_le_bytes());
    upload_frame::reseal(&mut body);
    let mut refused = false;
    let calls = allocator_calls(|| refused = decode_upload_frame(&body).is_err());
    assert!(refused);
    assert_eq!(calls, 0, "refusing a frame whose count lies");
}

#[test]
fn disabled_emit_and_span_never_call_the_allocator() {
    let _guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(false);
    let calls = allocator_calls(|| {
        for i in 0..10_000u64 {
            obs::emit!(Info, "test.allocs", "disabled_emit", "i" => i);
            let _span = obs::span("test.allocs", "disabled_span");
        }
    });
    obs::set_enabled(true);
    assert_eq!(calls, 0, "disabled observability path");
}

#[test]
fn unsampled_on_probe_never_calls_the_allocator() {
    let _guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    obs::trace::reset();
    // Arm one entry, sampling everything while arming. The record below
    // is a different entry, so with a trace armed `on_probe` takes its
    // full armed-table-miss path: id recompute, lock, lookup.
    obs::trace::set_sample_mod(1);
    let lists = [Pinglist {
        server: ServerId(1),
        generation: 1,
        entries: vec![PinglistEntry {
            target: PingTarget::Server {
                id: ServerId(2),
                ip: std::net::Ipv4Addr::new(10, 0, 0, 2),
            },
            port: 80,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            interval: SimDuration::from_secs(10),
        }],
    }];
    obs::trace::arm_from_pinglists(&lists, Some(SimTime::ZERO));
    obs::trace::set_sample_mod(obs::trace::DEFAULT_SAMPLE_MOD);
    assert_eq!(obs::trace::armed_count(), 1);

    let unsampled = record(&two_medium_dcs(), 7);
    let calls = allocator_calls(|| {
        for _ in 0..10_000 {
            obs::trace::on_probe(&unsampled);
        }
    });
    assert_eq!(obs::trace::armed_count(), 1, "the armed entry was not ours");
    obs::trace::reset();
    assert_eq!(calls, 0, "unsampled trace path over 10,000 probes");
}
