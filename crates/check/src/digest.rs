//! Bit-level digests of a quiesced run's observable state.
//!
//! [`state_digest`] condenses everything the shard-determinism gate
//! compares — the `CosmosStore` contents and the SLA rows, plus the
//! run's headline counts — into one `u64`. Two runs of the same scenario
//! at different shard counts must produce the same digest; any divergence
//! in a stored record, an SLA row, or a counter flips it.
//!
//! The store is hashed as a **multiset**: per-record FNV hashes combined
//! with a commutative sum, because extent iteration crosses a `HashMap`
//! of streams whose order is not deterministic. The SLA rows are hashed
//! **sequentially** in `ResultsDb`'s `BTreeMap` order, which is
//! deterministic, so row order differences are caught too.

use pingmesh_core::Orchestrator;
use pingmesh_dsa::ScopeKey;
use pingmesh_types::{ProbeKind, ProbeOutcome, ProbeRecord, QosClass, SimTime};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stable hash of one stored record (every field participates).
pub fn record_hash(r: &ProbeRecord) -> u64 {
    let mut h = FNV_OFFSET;
    let kind = match r.kind {
        ProbeKind::TcpSyn => 1u64 << 32,
        ProbeKind::TcpPayload(b) => (2u64 << 32) | u64::from(b),
        ProbeKind::Http => 3u64 << 32,
    };
    let qos = match r.qos {
        QosClass::High => 1u64,
        QosClass::Low => 2u64,
    };
    let outcome = match r.outcome {
        ProbeOutcome::Success { rtt } => (1u64 << 48) | rtt.as_micros(),
        ProbeOutcome::Timeout => 2u64 << 48,
        ProbeOutcome::Refused => 3u64 << 48,
    };
    for v in [
        r.ts.0,
        u64::from(r.src.0) << 32 | u64::from(r.dst.0),
        u64::from(r.src_pod.0) << 32 | u64::from(r.dst_pod.0),
        u64::from(r.src_podset.0) << 32 | u64::from(r.dst_podset.0),
        u64::from(r.src_dc.0) << 32 | u64::from(r.dst_dc.0),
        u64::from(r.src_port) << 16 | u64::from(r.dst_port),
        kind,
        qos,
        outcome,
    ] {
        fnv1a(&mut h, v);
    }
    h
}

fn scope_code(s: ScopeKey) -> u64 {
    match s {
        ScopeKey::Dc(d) => (1u64 << 56) | d.0 as u64,
        ScopeKey::DcPair(a, b) => (2u64 << 56) | (u64::from(a.0) << 28) | u64::from(b.0),
        ScopeKey::Podset(p) => (3u64 << 56) | p.0 as u64,
        ScopeKey::Pod(p) => (4u64 << 56) | p.0 as u64,
        ScopeKey::Server(s) => (5u64 << 56) | s.0 as u64,
        ScopeKey::Service(s) => (6u64 << 56) | s.0 as u64,
    }
}

/// Order-independent multiset digest of every record in the store, plus
/// its headline counters.
fn store_digest(orch: &Orchestrator) -> u64 {
    let store = &orch.pipeline().store;
    let mut multiset: u64 = 0;
    for rec in store
        .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
        .records()
    {
        multiset = multiset.wrapping_add(mix64(record_hash(&rec)));
    }
    let mut h = FNV_OFFSET;
    for v in [
        multiset,
        store.record_count(),
        store.logical_bytes(),
        store.partial_count() as u64,
    ] {
        fnv1a(&mut h, v);
    }
    h
}

/// Sequential digest of every SLA row in `ResultsDb` key order.
fn sla_digest(orch: &Orchestrator) -> u64 {
    let mut h = FNV_OFFSET;
    for row in orch.pipeline().db.rows() {
        for v in [
            row.window_start.0,
            scope_code(row.scope),
            row.drop_rate.to_bits(),
            row.p50_us,
            row.p99_us,
            row.samples,
        ] {
            fnv1a(&mut h, v);
        }
    }
    h
}

fn fnv_str(h: &mut u64, s: &str) {
    for &b in s.as_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Sequential digest of the mitigation engine's transition log plus the
/// podsets currently excluded from pinglist generation. The log is
/// appended only under the barrier-sequential job path, so its order is
/// deterministic and any shard-dependent mitigation decision flips this.
fn mitigation_digest(orch: &Orchestrator) -> u64 {
    use pingmesh_core::MitDevice;
    let mut h = FNV_OFFSET;
    for t in orch.mitigation().transitions() {
        let dev = match t.device {
            MitDevice::Switch(s) => {
                (1u64 << 48) | (u64::from(s.tier as u8) << 32) | u64::from(s.index)
            }
            MitDevice::Podset(p) => (2u64 << 48) | u64::from(p.0),
        };
        fnv1a(&mut h, t.at.0);
        fnv1a(&mut h, dev);
        fnv_str(&mut h, t.to.label());
        fnv_str(&mut h, t.reason);
    }
    for ps in orch.excluded_podsets() {
        fnv1a(&mut h, u64::from(ps.0));
    }
    h
}

/// The full observable-state digest the shard-determinism gate compares:
/// store contents, SLA rows, probe count, detection outputs, the
/// mitigation transition log, and the fleet's conservation ledger.
pub fn state_digest(orch: &Orchestrator) -> u64 {
    let topo = orch.net().topology();
    let mut observed = 0u64;
    let mut unresolved = 0u64;
    let mut buffered = 0u64;
    let mut discarded = 0u64;
    for s in topo.servers() {
        let a = orch.agent(s);
        observed += a.probes_observed();
        unresolved += a.unresolved_probes();
        buffered += a.buffered_records();
        discarded += a.discarded_total();
    }
    let mut h = FNV_OFFSET;
    for v in [
        store_digest(orch),
        sla_digest(orch),
        orch.outputs().probes_run,
        orch.outputs().alerts.len() as u64,
        orch.outputs().incidents.len() as u64,
        orch.outputs().escalations.len() as u64,
        orch.outputs().blackhole_candidates.len() as u64,
        orch.outputs().traceroutes.len() as u64,
        mitigation_digest(orch),
        observed,
        unresolved,
        buffered,
        discarded,
    ] {
        fnv1a(&mut h, v);
    }
    h
}
