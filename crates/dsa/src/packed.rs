//! The store's 32-byte record form.
//!
//! A [`ProbeRecord`] is 72 bytes, yet six of its fields — the pod, podset
//! and DC of each end — follow from the server ids, and its kind, payload,
//! QoS and outcome class take a handful of values across a whole store. An
//! extent therefore holds [`PackedRecord`]s: the timestamp, the RTT and the
//! ports as they are, each end `(server, pod, podset, dc)` as a key into
//! the store's endpoint table, and `(kind, payload, qos, outcome class)` as
//! a key into its shape table. Both tables only grow, so a key means the
//! same thing for the life of the store, and packing is lossless for every
//! record. [`Interner`] grows the tables behind a direct-mapped cache;
//! [`Tables`] is a cheap snapshot of them that expands records back.

use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// One stored record: its endpoints and shape as table keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedRecord {
    pub(crate) ts: SimTime,
    /// The RTT of a success; zero otherwise.
    rtt: SimDuration,
    src: u32,
    dst: u32,
    shape: u32,
    src_port: u16,
    dst_port: u16,
}

const _: () = assert!(std::mem::size_of::<PackedRecord>() == 32);

/// Bytes a resident record costs.
pub(crate) const PACKED_BYTES: usize = std::mem::size_of::<PackedRecord>();

/// One end of a probe, as a record names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Endpoint {
    server: ServerId,
    pod: PodId,
    podset: PodsetId,
    dc: DcId,
}

/// What was sent and how it ended, less the RTT: a success's RTT is zero
/// here and lives in the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    kind: ProbeKind,
    qos: QosClass,
    outcome: ProbeOutcome,
}

impl Shape {
    /// A cache slot hint: distinct for every tag combination of one payload.
    fn hint(&self) -> u32 {
        let kind = match self.kind {
            ProbeKind::TcpSyn => 0,
            ProbeKind::TcpPayload(n) => 1 + n.wrapping_mul(3),
            ProbeKind::Http => 2,
        };
        let outcome = match self.outcome {
            ProbeOutcome::Success { .. } => 0,
            ProbeOutcome::Timeout => 1,
            ProbeOutcome::Refused => 2,
        };
        kind.wrapping_mul(6) + self.qos as u32 * 3 + outcome
    }
}

/// A snapshot of a store's tables: what a key meant when it was taken, and
/// ever after (the tables only grow). Cloning shares them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    endpoints: Arc<Vec<Endpoint>>,
    shapes: Arc<Vec<Shape>>,
}

impl Tables {
    /// The record `p` was packed from.
    pub(crate) fn expand(&self, p: &PackedRecord) -> ProbeRecord {
        let (s, d) = (
            self.endpoints[p.src as usize],
            self.endpoints[p.dst as usize],
        );
        let shape = self.shapes[p.shape as usize];
        let outcome = match shape.outcome {
            ProbeOutcome::Success { .. } => ProbeOutcome::Success { rtt: p.rtt },
            other => other,
        };
        ProbeRecord {
            ts: p.ts,
            src: s.server,
            dst: d.server,
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind: shape.kind,
            qos: shape.qos,
            src_port: p.src_port,
            dst_port: p.dst_port,
            outcome,
        }
    }

    /// `packed`, expanded.
    pub(crate) fn expand_all(&self, packed: &[PackedRecord]) -> Vec<ProbeRecord> {
        packed.iter().map(|p| self.expand(p)).collect()
    }

    /// Bytes the table entries take.
    pub(crate) fn bytes(&self) -> usize {
        self.endpoints.len() * std::mem::size_of::<Endpoint>()
            + self.shapes.len() * std::mem::size_of::<Shape>()
    }
}

/// Slots of the endpoint cache (a server id's low bits pick one).
const ENDPOINT_SLOTS: usize = 1 << 13;
/// Slots of the shape cache.
const SHAPE_SLOTS: usize = 1 << 6;

/// The key index of one table, behind a direct-mapped cache of keys: a
/// slot hit costs one compare against the table, a miss one hash lookup.
/// Nothing here is indexed by an id itself, so no id can size it.
#[derive(Debug)]
struct Index<T> {
    keys: HashMap<T, u32>,
    /// Key last interned through each slot; `u32::MAX` when none. Empty
    /// until the first intern.
    slots: Vec<u32>,
}

impl<T: Copy + Eq + Hash> Index<T> {
    fn new() -> Self {
        Self {
            keys: HashMap::new(),
            slots: Vec::new(),
        }
    }

    /// The key of `item` in `table`, appending it if new. `hint` picks the
    /// cache slot (`slots` must be a power of two).
    fn key(&mut self, table: &mut Arc<Vec<T>>, item: T, hint: u32, slots: usize) -> u32 {
        if self.slots.is_empty() {
            self.slots = vec![u32::MAX; slots];
        }
        let slot = hint as usize & (slots - 1);
        let cached = self.slots[slot];
        if table.get(cached as usize) == Some(&item) {
            return cached;
        }
        let key = *self.keys.entry(item).or_insert_with(|| {
            let key = u32::try_from(table.len()).expect("fewer than 2^32 distinct table entries");
            // Copies the table once if a checkpoint plan holds a snapshot.
            Arc::make_mut(table).push(item);
            key
        });
        self.slots[slot] = key;
        key
    }
}

/// A store's tables and the indexes that grow them.
#[derive(Debug)]
pub(crate) struct Interner {
    tables: Tables,
    endpoints: Index<Endpoint>,
    shapes: Index<Shape>,
}

impl Default for Interner {
    fn default() -> Self {
        Self {
            tables: Tables::default(),
            endpoints: Index::new(),
            shapes: Index::new(),
        }
    }
}

impl Interner {
    /// `r`, packed; its endpoints and shape are interned as needed.
    pub(crate) fn pack(&mut self, r: &ProbeRecord) -> PackedRecord {
        let Tables { endpoints, shapes } = &mut self.tables;
        let mut end = |server: ServerId, pod, podset, dc| {
            let e = Endpoint {
                server,
                pod,
                podset,
                dc,
            };
            self.endpoints.key(endpoints, e, server.0, ENDPOINT_SLOTS)
        };
        let src = end(r.src, r.src_pod, r.src_podset, r.src_dc);
        let dst = end(r.dst, r.dst_pod, r.dst_podset, r.dst_dc);
        let (outcome, rtt) = match r.outcome {
            ProbeOutcome::Success { rtt } => (
                ProbeOutcome::Success {
                    rtt: SimDuration::ZERO,
                },
                rtt,
            ),
            other => (other, SimDuration::ZERO),
        };
        let shape = Shape {
            kind: r.kind,
            qos: r.qos,
            outcome,
        };
        PackedRecord {
            ts: r.ts,
            rtt,
            src,
            dst,
            shape: self.shapes.key(shapes, shape, shape.hint(), SHAPE_SLOTS),
            src_port: r.src_port,
            dst_port: r.dst_port,
        }
    }

    /// The tables as they stand.
    pub(crate) fn tables(&self) -> &Tables {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(src: u32, dst: u32, kind: ProbeKind, outcome: ProbeOutcome) -> ProbeRecord {
        ProbeRecord {
            ts: SimTime(u64::MAX - u64::from(src)),
            src: ServerId(src),
            dst: ServerId(dst),
            src_pod: PodId(src / 2),
            dst_pod: PodId(dst / 2),
            src_podset: PodsetId(src / 4),
            dst_podset: PodsetId(dst / 4),
            src_dc: DcId(src / 8),
            dst_dc: DcId(dst / 8),
            kind,
            qos: QosClass::Low,
            src_port: u16::MAX,
            dst_port: 8_100,
            outcome,
        }
    }

    #[test]
    fn packing_round_trips_and_interns_each_endpoint_and_shape_once() {
        let mut interner = Interner::default();
        let ok = |us| ProbeOutcome::Success {
            rtt: SimDuration(us),
        };
        let kinds = [
            ProbeKind::TcpSyn,
            ProbeKind::TcpPayload(1_000),
            ProbeKind::Http,
        ];
        let outcomes = [
            ok(u64::MAX),
            ok(0),
            ProbeOutcome::Timeout,
            ProbeOutcome::Refused,
        ];
        let mut records = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            for (j, outcome) in outcomes.into_iter().enumerate() {
                // Ids past the cache's slots alias slots of small ones.
                let src = [0, ENDPOINT_SLOTS as u32, u32::MAX][i];
                records.push(record(src, j as u32, kind, outcome));
            }
        }
        let packed: Vec<PackedRecord> = records.iter().map(|r| interner.pack(r)).collect();
        let again: Vec<PackedRecord> = records.iter().map(|r| interner.pack(r)).collect();
        assert_eq!(packed, again, "a repeat interns nothing new");
        assert_eq!(interner.tables().expand_all(&packed), records);
        // Three sources and four destinations, server 0 among both; 3
        // kinds × 3 outcome classes.
        assert_eq!(interner.tables().endpoints.len(), 6);
        assert_eq!(interner.tables().shapes.len(), 9);
    }

    #[test]
    fn a_snapshot_keeps_its_meaning_while_the_tables_grow() {
        let mut interner = Interner::default();
        let first = record(1, 2, ProbeKind::TcpSyn, ProbeOutcome::Timeout);
        let p = interner.pack(&first);
        let snapshot = interner.tables().clone();
        for s in 3..100 {
            interner.pack(&record(s, s + 1, ProbeKind::Http, ProbeOutcome::Refused));
        }
        assert_eq!(snapshot.endpoints.len(), 2, "the snapshot did not grow");
        assert_eq!(snapshot.expand(&p), first);
        assert_eq!(interner.tables().expand(&p), first);
    }
}
