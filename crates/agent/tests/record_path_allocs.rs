//! Structural gate: at steady state an agent's probe path —
//! `due_probes` → `record_outcome` → `recycle_due` — never calls the
//! allocator, and an upload cycle calls it at most twice. A binary of its
//! own because the counting allocator is process-wide.

use pingmesh_agent::buffer::MAX_LOG_LINE_BYTES;
use pingmesh_agent::{AgentConfig, AgentFleet, ControllerPollOutcome};
use pingmesh_topology::{Topology, TopologySpec};
use pingmesh_types::{
    PingTarget, Pinglist, PinglistEntry, ProbeKind, ProbeOutcome, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

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

const PEERS: usize = 120;

/// Wakes the agent until it has run at least `target` probes, feeding an
/// outcome back for every due probe as a driver does; returns the probes
/// run.
fn run_probes(fleet: &mut AgentFleet, idx: usize, target: usize) -> usize {
    let outcomes = [
        ProbeOutcome::Success {
            rtt: SimDuration::from_micros(250),
        },
        ProbeOutcome::Timeout,
        ProbeOutcome::Success {
            rtt: SimDuration::from_secs(3),
        },
        ProbeOutcome::Refused,
    ];
    let mut probes = 0;
    while probes < target {
        let now = fleet.next_wakeup(idx).expect("a pinglist is installed");
        let due = fleet.due_probes(idx, now);
        for p in &due {
            let PingTarget::Server { id, .. } = p.entry.target else {
                unreachable!("the pinglist holds servers only");
            };
            fleet.record_outcome(idx, p, Some(id), outcomes[probes % outcomes.len()], now);
            probes += 1;
        }
        fleet.recycle_due(due);
    }
    probes
}

fn upload_cycle(fleet: &mut AgentFleet, idx: usize) -> usize {
    let batch = fleet.begin_upload(idx).expect("records are buffered");
    let n = batch.len();
    assert!(!fleet.on_upload_result(idx, true));
    fleet.recycle_batch(idx, batch);
    n
}

#[test]
fn steady_state_probe_path_never_calls_the_allocator() {
    let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
    let servers = topo.server_count() as u32;
    let mut fleet = AgentFleet::new(topo, AgentConfig::default());
    let idx = fleet.push_server(ServerId(0));
    let entries = (0..PEERS as u32)
        .map(|i| PinglistEntry {
            target: PingTarget::Server {
                id: ServerId(1 + i % (servers - 1)),
                ip: Ipv4Addr::new(10, 0, 0, 1 + i as u8),
            },
            port: 8100,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            interval: SimDuration::from_secs(10),
        })
        .collect();
    let list = Pinglist {
        server: ServerId(0),
        generation: 1,
        entries,
    };
    fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(list), SimTime::ZERO);

    // Warm-up, one full upload cycle: long enough for the default config's
    // log ring to fill and wrap, so it and the record buffer are at their
    // working size.
    let log_lines = AgentConfig::default().log_cap_bytes / MAX_LOG_LINE_BYTES;
    let warm = run_probes(&mut fleet, idx, log_lines + PEERS);
    assert_eq!(upload_cycle(&mut fleet, idx), warm);

    let mut probes = 0;
    let calls = allocator_calls(|| probes = run_probes(&mut fleet, idx, 10_000));
    assert!(probes >= 10_000, "{probes} probes");
    assert_eq!(
        calls, 0,
        "allocator calls over {probes} steady-state probes"
    );
    assert_eq!(fleet.view(idx).buffered_records(), probes as u64);

    let mut uploaded = 0;
    let calls = allocator_calls(|| uploaded = upload_cycle(&mut fleet, idx));
    assert_eq!(uploaded, probes);
    assert!(calls <= 2, "{calls} allocator calls in one upload cycle");
}
