//! Bounded result buffering with retry-then-discard upload semantics.
//!
//! "Once a timer times out or the size of the measurement results exceeds
//! a threshold, the Pingmesh Agent uploads the results to Cosmos. ... If a
//! server cannot upload its latency data, it will retry several times.
//! After that it will stop trying and discard the in-memory data. This is
//! to ensure the Pingmesh Agent uses bounded memory resource. The
//! Pingmesh Agent also writes the latency data to local disk as log
//! files. The size of log files is limited to a configurable size."
//! (§3.4.2)
//!
//! An agent holds each result once, as a 32-byte entry in one ring: the
//! newest `unsent` entries are the buffered records, the newest
//! `log_cap_bytes / MAX_LOG_LINE_BYTES` the capped local log. An upload
//! carries a copy of the unsent entries, still 32 bytes each
//! ([`UploadBatch`]); a [`ProbeRecord`] exists only while a driver expands
//! a batch for the wire or the store, its pod, podset and DC ids read from
//! the topology. The ring stands in for the paper's log *file*; text
//! exists only while `log_lines` is read.

use crate::config::AgentConfig;
use crate::scheduler::DueProbe;
use pingmesh_topology::Topology;
use pingmesh_types::{
    ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration, SimTime,
};
use std::collections::VecDeque;

/// The batch in the uploader's hands: its length and the attempts made.
#[derive(Debug, Clone, Copy)]
struct PendingUpload {
    len: usize,
    attempts: u32,
}

/// The longest line the log can render, every number at its type's maximum:
/// `ts,srvN,srvN,Success { rtt: SimDuration(N) }`. The ring retains
/// `log_cap_bytes / MAX_LOG_LINE_BYTES` lines, so no push formats or counts.
pub const MAX_LOG_LINE_BYTES: usize = 20 + 1 + 13 + 1 + 13 + 1 + 30 + 20;

/// One result: the fields the probe chose or measured, `ProbeKind` split
/// into a tag and its payload and `ProbeOutcome` into a tag and its RTT.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    ts: SimTime,
    rtt: SimDuration,
    dst: ServerId,
    payload: u32,
    src_port: u16,
    dst_port: u16,
    kind: KindTag,
    qos: QosClass,
    outcome: OutcomeTag,
}

#[derive(Debug, Clone, Copy)]
enum KindTag {
    TcpSyn,
    TcpPayload,
    Http,
}

#[derive(Debug, Clone, Copy)]
enum OutcomeTag {
    Success,
    Timeout,
    Refused,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    /// Packs the result of `due`, launched at `ts`, that reached `dst`.
    pub(crate) fn new(ts: SimTime, dst: ServerId, due: &DueProbe, outcome: ProbeOutcome) -> Self {
        let (kind, payload) = match due.entry.kind {
            ProbeKind::TcpSyn => (KindTag::TcpSyn, 0),
            ProbeKind::TcpPayload(n) => (KindTag::TcpPayload, n),
            ProbeKind::Http => (KindTag::Http, 0),
        };
        let (outcome, rtt) = match outcome {
            ProbeOutcome::Success { rtt } => (OutcomeTag::Success, rtt),
            ProbeOutcome::Timeout => (OutcomeTag::Timeout, SimDuration::ZERO),
            ProbeOutcome::Refused => (OutcomeTag::Refused, SimDuration::ZERO),
        };
        Self {
            ts,
            rtt,
            dst,
            payload,
            src_port: due.src_port,
            dst_port: due.entry.port,
            kind,
            qos: due.entry.qos,
            outcome,
        }
    }

    fn outcome(&self) -> ProbeOutcome {
        match self.outcome {
            OutcomeTag::Success => ProbeOutcome::Success { rtt: self.rtt },
            OutcomeTag::Timeout => ProbeOutcome::Timeout,
            OutcomeTag::Refused => ProbeOutcome::Refused,
        }
    }

    /// The record agent `src` uploads for this entry; every pod, podset
    /// and DC id is read from `topo`.
    pub(crate) fn expand(&self, src: ServerId, topo: &Topology) -> ProbeRecord {
        let (s, d) = (topo.server(src), topo.server(self.dst));
        let kind = match self.kind {
            KindTag::TcpSyn => ProbeKind::TcpSyn,
            KindTag::TcpPayload => ProbeKind::TcpPayload(self.payload),
            KindTag::Http => ProbeKind::Http,
        };
        ProbeRecord {
            ts: self.ts,
            src,
            dst: self.dst,
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind,
            qos: self.qos,
            src_port: self.src_port,
            dst_port: self.dst_port,
            outcome: self.outcome(),
        }
    }
}

/// The results one upload carries, as the ring held them: the unsent
/// entries, 32 bytes each, and the agent's server id. A driver expands them
/// with [`UploadBatch::records`] where it needs [`ProbeRecord`]s.
#[derive(Debug, Clone)]
pub struct UploadBatch {
    src: ServerId,
    entries: Vec<Entry>,
}

impl UploadBatch {
    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch holds no record (never the case for a batch
    /// `begin_upload` returned).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The uploading agent's server.
    pub fn src(&self) -> ServerId {
        self.src
    }

    /// Bytes the batch has allocated: 32 per record.
    pub fn resident_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// The batch's records, oldest first; every pod, podset and DC id is
    /// read from `topo`.
    pub fn records<'a>(
        &'a self,
        topo: &'a Topology,
    ) -> impl ExactSizeIterator<Item = ProbeRecord> + 'a {
        self.entries.iter().map(move |e| e.expand(self.src, topo))
    }
}

/// The agent's result ring: in-memory buffer and capped local log in one.
#[derive(Debug)]
pub(crate) struct ResultBuffer {
    config: AgentConfig,
    src: ServerId,
    /// Oldest first; the newest `unsent` entries are the buffered records.
    ring: VecDeque<Entry>,
    unsent: usize,
    pending: Option<PendingUpload>,
    /// Records dropped (buffer overflow or upload give-up).
    discarded: u64,
}

impl ResultBuffer {
    /// Creates an empty buffer for the agent running on `src`.
    pub(crate) fn new(config: AgentConfig, src: ServerId) -> Self {
        Self {
            config,
            src,
            ring: VecDeque::new(),
            unsent: 0,
            pending: None,
            discarded: 0,
        }
    }

    /// Number of buffered (not yet batched) records.
    pub(crate) fn len(&self) -> usize {
        self.unsent
    }

    /// Total records discarded so far.
    pub(crate) fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Entries the ring holds: buffered records and log lines, each once.
    pub(crate) fn held(&self) -> usize {
        self.ring.len()
    }

    /// Bytes the ring has allocated.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<Entry>()
    }

    /// Lines the log keeps: `log_cap_bytes` at the longest line's size.
    fn log_cap_lines(&self) -> usize {
        self.config.log_cap_bytes / MAX_LOG_LINE_BYTES
    }

    /// Appends a result; drops it (counting) if the byte cap is reached.
    /// Evicts before it inserts, and only entries that are neither log
    /// lines nor unsent, so a ring at its working size never grows past it.
    pub(crate) fn push(&mut self, entry: Entry) {
        if (self.unsent + 1) * ProbeRecord::WIRE_SIZE > self.config.buffer_cap_bytes {
            self.discarded += 1;
            return;
        }
        let keep = self.log_cap_lines().max(self.unsent + 1);
        let evict = (self.ring.len() + 1).saturating_sub(keep);
        self.ring.drain(..evict);
        self.ring.push_back(entry);
        self.unsent += 1;
    }

    /// The capped local log (oldest first), rendered on read as
    /// `ts_us,src,dst,outcome`.
    pub(crate) fn log_lines(&self) -> impl Iterator<Item = String> + '_ {
        let from = self.ring.len().saturating_sub(self.log_cap_lines());
        let src = self.src;
        self.ring
            .range(from..)
            .map(move |e| format!("{},{src},{},{:?}", e.ts.as_micros(), e.dst, e.outcome()))
    }

    /// Whether an upload should fire now (batch size or age trigger), and
    /// no batch is already in flight.
    pub(crate) fn upload_due(&self, now: SimTime) -> bool {
        self.pending.is_none()
            && self.unsent > 0
            && (self.unsent >= self.config.upload_batch_records
                || now.since(self.ring[self.ring.len() - self.unsent].ts)
                    >= self.config.upload_max_age)
    }

    /// Copies the unsent entries into a batch, at its exact size, that the
    /// caller owns for the whole retry cycle and drops afterwards; they
    /// stay in the ring as log lines. `None` if one is pending or nothing
    /// is buffered.
    pub(crate) fn begin_upload(&mut self) -> Option<UploadBatch> {
        if self.pending.is_some() || self.unsent == 0 {
            return None;
        }
        let from = self.ring.len() - self.unsent;
        let mut entries = Vec::with_capacity(self.unsent);
        entries.extend(self.ring.range(from..));
        let batch = UploadBatch {
            src: self.src,
            entries,
        };
        self.pending = Some(PendingUpload {
            len: self.unsent,
            attempts: 1,
        });
        self.unsent = 0;
        Some(batch)
    }

    /// Reports the uploader's result. Returns `true` if the caller should
    /// retry with the batch it already holds: on failure the batch stays
    /// pending until the retry budget is exhausted, then it is discarded.
    pub(crate) fn on_upload_result(&mut self, ok: bool) -> bool {
        let Some(mut p) = self.pending.take() else {
            return false;
        };
        if ok {
            return false;
        }
        if p.attempts > self.config.upload_retries {
            self.discarded += p.len as u64;
            return false;
        }
        p.attempts += 1;
        self.pending = Some(p);
        true
    }

    /// Records uploaded successfully? (Used by counters.)
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::backoff::{next_u64, seed_state};
    use pingmesh_types::{DcId, PingTarget, PinglistEntry, PodId, PodsetId};
    use std::net::Ipv4Addr;

    fn topo() -> Topology {
        Topology::build(TopologySpec::single_tiny()).unwrap()
    }

    impl ResultBuffer {
        /// Pushes the entry `rec` packs, as `AgentFleet::record_outcome`
        /// does for the probe `rec` records.
        fn push_record(&mut self, rec: ProbeRecord) {
            assert_eq!(rec.src, self.src, "one buffer per agent");
            let entry = PinglistEntry {
                target: PingTarget::Server {
                    id: rec.dst,
                    ip: Ipv4Addr::UNSPECIFIED,
                },
                port: rec.dst_port,
                kind: rec.kind,
                qos: rec.qos,
                interval: SimDuration::from_secs(10),
            };
            let due = DueProbe {
                entry_index: 0,
                entry,
                src_port: rec.src_port,
            };
            self.push(Entry::new(rec.ts, rec.dst, &due, rec.outcome));
        }

        /// The eager `begin_upload` that [`UploadBatch`] replaced: the
        /// unsent entries expanded into records at once. Kept as the
        /// reference every packed batch must expand to.
        fn begin_upload_eager(&mut self, topo: &Topology) -> Option<Vec<ProbeRecord>> {
            if self.pending.is_some() || self.unsent == 0 {
                return None;
            }
            let from = self.ring.len() - self.unsent;
            let batch = self
                .ring
                .range(from..)
                .map(|e| e.expand(self.src, topo))
                .collect();
            self.pending = Some(PendingUpload {
                len: self.unsent,
                attempts: 1,
            });
            self.unsent = 0;
            Some(batch)
        }
    }

    fn rec(ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts: SimTime(ts),
            src: ServerId(0),
            dst: ServerId(1),
            src_pod: PodId(0),
            dst_pod: PodId(0),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(0),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(250),
            },
        }
    }

    fn small_config() -> AgentConfig {
        AgentConfig {
            upload_batch_records: 3,
            upload_max_age: SimDuration::from_secs(60),
            buffer_cap_bytes: 64 * 10, // ten records
            upload_retries: 2,
            log_cap_bytes: 200,
            ..AgentConfig::default()
        }
    }

    fn buffer(config: AgentConfig) -> ResultBuffer {
        ResultBuffer::new(config, ServerId(0))
    }

    #[test]
    fn batch_size_triggers_upload() {
        let mut b = buffer(small_config());
        b.push_record(rec(1));
        b.push_record(rec(2));
        assert!(!b.upload_due(SimTime(10)));
        b.push_record(rec(3));
        assert!(b.upload_due(SimTime(10)));
        let batch = b.begin_upload().unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn age_triggers_upload() {
        let mut b = buffer(small_config());
        b.push_record(rec(0));
        assert!(!b.upload_due(SimTime(59_000_000)));
        assert!(b.upload_due(SimTime(60_000_000)));
    }

    #[test]
    fn no_double_batches_in_flight() {
        let mut b = buffer(small_config());
        for i in 0..3 {
            b.push_record(rec(i));
        }
        assert!(b.begin_upload().is_some());
        b.push_record(rec(10));
        b.push_record(rec(11));
        b.push_record(rec(12));
        // A batch is pending: neither due nor beginnable.
        assert!(!b.upload_due(SimTime(100)));
        assert!(b.begin_upload().is_none());
        // Success clears the pending slot.
        assert!(!b.on_upload_result(true));
        assert!(b.upload_due(SimTime(100)));
    }

    #[test]
    fn failed_uploads_retry_then_discard() {
        let mut b = buffer(small_config());
        for i in 0..3 {
            b.push_record(rec(i));
        }
        let batch = b.begin_upload().unwrap();
        assert_eq!(batch.len(), 3);
        // retries allowed: 2 → attempts 2 and 3 ask the caller to retry
        // the batch it already holds.
        assert!(b.on_upload_result(false));
        assert!(b.on_upload_result(false));
        // third failure exhausts the budget: discard.
        assert!(!b.on_upload_result(false));
        assert_eq!(b.discarded(), 3);
        assert!(!b.has_pending());
    }

    /// Successor of the exact-size-buffer test: between uploads an agent
    /// holds its ring and nothing else, and the next cycle refills the
    /// ring's allocation without growing it.
    #[test]
    fn idle_agent_holds_only_its_ring_and_refills_it_in_place() {
        let mut b = buffer(small_config());
        for i in 0..3 {
            b.push_record(rec(i));
        }
        let batch = b.begin_upload().unwrap();
        assert_eq!(batch.resident_bytes(), 3 * 32, "exact size, 32 B each");
        assert!(!b.on_upload_result(true));
        drop(batch); // all `AgentFleet::recycle_batch` does
        assert_eq!(b.held(), 3, "the batch's entries stay as log lines");
        let bytes = b.resident_bytes();
        assert_eq!(bytes, 4 * 32, "the ring's first allocation");
        for i in 0..3 {
            b.push_record(rec(i));
            assert_eq!(b.resident_bytes(), bytes, "refill does not reallocate");
        }
        assert_eq!(b.held(), 3, "two log lines, all three unsent");
    }

    #[test]
    fn buffer_cap_drops_excess_records() {
        let mut b = buffer(small_config());
        for i in 0..20 {
            b.push_record(rec(i));
        }
        assert_eq!(b.len(), 10, "cap = ten records");
        assert_eq!(b.discarded(), 10);
    }

    #[test]
    fn local_log_is_byte_capped() {
        let mut b = buffer(small_config());
        for i in 0..50 {
            b.push_record(rec(i));
            // keep buffer under its cap so pushes aren't dropped
            if b.len() >= 3 {
                b.begin_upload();
                b.on_upload_result(true);
            }
        }
        let total: usize = b.log_lines().map(|l| l.len()).sum();
        assert!(total <= 200, "log stays capped: {total}");
        // Newest lines survive.
        let last = b.log_lines().last().unwrap().to_string();
        assert!(last.starts_with("49,"));
    }

    #[test]
    fn upload_result_without_pending_is_noop() {
        let mut b = buffer(small_config());
        assert!(!b.on_upload_result(false));
        assert_eq!(b.discarded(), 0);
    }

    /// The line the text log stored per record, kept as the reference the
    /// packed ring must render byte for byte.
    fn reference_line(rec: &ProbeRecord) -> String {
        format!(
            "{},{},{},{:?}",
            rec.ts.as_micros(),
            rec.src,
            rec.dst,
            rec.outcome
        )
    }

    /// A seeded value with a uniformly drawn digit count, so short and
    /// long renderings are equally likely.
    fn with_random_digits(rng: &mut u64, max: u64) -> u64 {
        let digits = 1 + next_u64(rng) % (max.ilog10() as u64 + 1);
        let lo = if digits == 1 {
            0
        } else {
            10u64.pow(digits as u32 - 1)
        };
        let hi = 10u64
            .checked_pow(digits as u32)
            .map_or(max, |p| p - 1)
            .min(max);
        lo + next_u64(rng) % (hi - lo + 1)
    }

    fn seeded_records(seed: u64, src: ServerId, n: usize) -> Vec<ProbeRecord> {
        let outcomes = [0, 1, 250, 3_000_000, 9_000_000, u64::MAX]
            .map(|us| ProbeOutcome::Success {
                rtt: SimDuration(us),
            })
            .into_iter()
            .chain([ProbeOutcome::Timeout, ProbeOutcome::Refused])
            .collect::<Vec<_>>();
        let mut rng = seed_state(seed);
        (0..n)
            .map(|i| ProbeRecord {
                ts: SimTime(if i == 0 {
                    u64::MAX
                } else {
                    with_random_digits(&mut rng, u64::MAX)
                }),
                src,
                dst: ServerId(with_random_digits(&mut rng, u32::MAX as u64) as u32),
                outcome: outcomes[(next_u64(&mut rng) % outcomes.len() as u64) as usize],
                ..rec(0)
            })
            .collect()
    }

    #[test]
    fn packed_log_renders_the_lines_the_text_log_stored() {
        let longest = ProbeRecord {
            ts: SimTime(u64::MAX),
            src: ServerId(u32::MAX),
            dst: ServerId(u32::MAX),
            outcome: ProbeOutcome::Success {
                rtt: SimDuration(u64::MAX),
            },
            ..rec(0)
        };
        assert_eq!(reference_line(&longest).len(), MAX_LOG_LINE_BYTES);
        // One buffer per source-id width, 1 to 10 digits; 1,200 records.
        for (digits, seed) in (1..=10u32).zip(7u64..) {
            let src = ServerId((10u64.pow(digits) - 1).min(u32::MAX as u64) as u32);
            let records = seeded_records(seed, src, 120);
            let mut b = ResultBuffer::new(AgentConfig::default(), src);
            for r in &records {
                b.push_record(*r);
            }
            let want: Vec<String> = records.iter().map(reference_line).collect();
            assert_eq!(b.log_lines().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn rendered_log_never_exceeds_the_cap_and_newest_lines_win() {
        let src = ServerId(u32::MAX);
        let records = seeded_records(21, src, 300);
        let want: Vec<String> = records.iter().map(reference_line).collect();
        for cap in [0, 1, 95, 200, 4 * 1024 * 1024] {
            let config = AgentConfig {
                log_cap_bytes: cap,
                ..AgentConfig::default()
            };
            let mut b = ResultBuffer::new(config, src);
            for (i, r) in records.iter().enumerate() {
                b.push_record(*r);
                let kept: Vec<String> = b.log_lines().collect();
                let bytes: usize = kept.iter().map(String::len).sum();
                assert!(bytes <= cap, "cap {cap}: {bytes} rendered bytes");
                assert_eq!(kept[..], want[i + 1 - kept.len()..=i], "a suffix");
                if cap >= MAX_LOG_LINE_BYTES {
                    assert_eq!(kept.last(), Some(&want[i]), "cap {cap}");
                }
            }
        }
    }

    /// The two-structure buffer the ring replaced — unsent records in a
    /// `Vec`, the log in its own ring capped at `log_cap_lines` — kept as
    /// the reference the one ring must match.
    struct Reference {
        config: AgentConfig,
        records: Vec<ProbeRecord>,
        log: VecDeque<ProbeRecord>,
        pending: Option<(usize, u32)>,
        discarded: u64,
    }

    impl Reference {
        fn new(config: AgentConfig) -> Self {
            Self {
                config,
                records: Vec::new(),
                log: VecDeque::new(),
                pending: None,
                discarded: 0,
            }
        }

        fn push(&mut self, rec: ProbeRecord) {
            if (self.records.len() + 1) * rec.wire_size() > self.config.buffer_cap_bytes {
                self.discarded += 1;
                return;
            }
            let max_lines = self.config.log_cap_bytes / MAX_LOG_LINE_BYTES;
            if self.log.len() < max_lines || self.log.pop_front().is_some() {
                self.log.push_back(rec);
            }
            self.records.push(rec);
        }

        fn upload_due(&self, now: SimTime) -> bool {
            self.pending.is_none()
                && self.records.first().is_some_and(|oldest| {
                    self.records.len() >= self.config.upload_batch_records
                        || now.since(oldest.ts) >= self.config.upload_max_age
                })
        }

        fn begin_upload(&mut self) -> Option<Vec<ProbeRecord>> {
            if self.pending.is_some() || self.records.is_empty() {
                return None;
            }
            self.pending = Some((self.records.len(), 1));
            Some(std::mem::take(&mut self.records))
        }

        fn on_upload_result(&mut self, ok: bool) -> bool {
            let Some((len, attempts)) = self.pending.take() else {
                return false;
            };
            if ok {
                return false;
            }
            if attempts > self.config.upload_retries {
                self.discarded += len as u64;
                return false;
            }
            self.pending = Some((len, attempts + 1));
            true
        }

        fn log_lines(&self) -> Vec<String> {
            self.log.iter().map(reference_line).collect()
        }
    }

    /// A record `src` could have produced in `topo`: every location id
    /// from the topology, every per-probe field seeded.
    fn topo_record(topo: &Topology, rng: &mut u64, src: ServerId, ts: SimTime) -> ProbeRecord {
        let dst = ServerId((next_u64(rng) % topo.server_count() as u64) as u32);
        let (s, d) = (topo.server(src), topo.server(dst));
        let kind = match next_u64(rng) % 3 {
            0 => ProbeKind::TcpSyn,
            1 => ProbeKind::TcpPayload(next_u64(rng) as u32),
            _ => ProbeKind::Http,
        };
        let outcome = match next_u64(rng) % 4 {
            0 => ProbeOutcome::Timeout,
            1 => ProbeOutcome::Refused,
            _ => ProbeOutcome::Success {
                rtt: SimDuration(next_u64(rng) >> (next_u64(rng) % 64)),
            },
        };
        ProbeRecord {
            ts,
            src,
            dst,
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind,
            qos: QosClass::ALL[(next_u64(rng) % 2) as usize],
            src_port: next_u64(rng) as u16,
            dst_port: next_u64(rng) as u16,
            outcome,
        }
    }

    /// Seeded pushes, cap-overflow discards and uploads that succeed, fail
    /// through their retries, or are given up on, driven through the ring
    /// and the reference side by side: every observable agrees after every
    /// step, each batch expands to exactly the records pushed, and the
    /// ring's capacity never passes the next power of two of the most it
    /// has had to hold.
    #[test]
    fn one_ring_matches_the_two_structure_reference() {
        let topo = topo();
        let src = ServerId(3);
        // Log caps of 0 lines, below one batch (5 < 16) and above it.
        for (log_lines, seed) in [(0, 1u64), (5, 2), (100, 3), (0, 4), (5, 5), (100, 6)] {
            let config = AgentConfig {
                upload_batch_records: 16,
                upload_max_age: SimDuration::from_secs(20),
                buffer_cap_bytes: 64 * 40,
                upload_retries: 2,
                log_cap_bytes: log_lines * MAX_LOG_LINE_BYTES + (seed as usize % 3) * 30,
                ..AgentConfig::default()
            };
            let mut b = ResultBuffer::new(config.clone(), src);
            let mut r = Reference::new(config);
            let mut rng = seed_state(seed);
            let mut now = SimTime::ZERO;
            let mut peak = log_lines;
            let (mut overflowed, mut given_up) = (0, 0);
            for step in 0..4_000 {
                now += SimDuration::from_millis(next_u64(&mut rng) % 5_000);
                match next_u64(&mut rng) % 16 {
                    0..=10 => {
                        let (rec, before) = (topo_record(&topo, &mut rng, src, now), r.discarded);
                        b.push_record(rec);
                        r.push(rec);
                        overflowed += r.discarded - before;
                    }
                    11 | 12 => {
                        let got = b.begin_upload().map(|x| x.records(&topo).collect());
                        let want = r.begin_upload();
                        assert_eq!(got, want, "seed {seed} step {step}: batch");
                    }
                    _ => {
                        // Success one time in three; a failure asks for a
                        // retry until the budget is spent.
                        let (ok, before) = (next_u64(&mut rng).is_multiple_of(3), r.discarded);
                        let retry = b.on_upload_result(ok);
                        assert_eq!(retry, r.on_upload_result(ok), "seed {seed} step {step}");
                        given_up += r.discarded - before;
                    }
                }
                peak = peak.max(b.len());
                assert_eq!(b.len(), r.records.len(), "seed {seed} step {step}: len");
                assert_eq!(b.discarded(), r.discarded, "seed {seed} step {step}");
                assert_eq!(b.has_pending(), r.pending.is_some());
                assert_eq!(
                    b.upload_due(now),
                    r.upload_due(now),
                    "seed {seed} step {step}"
                );
                assert_eq!(b.log_lines().collect::<Vec<_>>(), r.log_lines());
                assert!(
                    b.held() <= peak,
                    "seed {seed} step {step}: {} held",
                    b.held()
                );
                let cap = b.resident_bytes() / 32;
                assert!(
                    cap <= peak.next_power_of_two().max(4),
                    "seed {seed} step {step}: capacity {cap}, peak {peak}"
                );
            }
            assert!(
                overflowed > 0 && given_up > 0,
                "seed {seed}: both discard paths ran"
            );
        }
    }

    /// Seeded pushes of every probe kind and outcome, and upload cycles
    /// that succeed, retry or are given up on, driven through two buffers
    /// side by side: each packed batch, once expanded, equals the records
    /// the eager `begin_upload` returns at the same step, and holds them in
    /// 32 bytes each.
    #[test]
    fn packed_batches_expand_to_what_the_eager_upload_returned() {
        let topo = topo();
        let src = ServerId(5);
        let (mut kinds, mut outcomes) = ([0usize; 3], [0usize; 3]);
        let (mut batches, mut retries, mut given_up) = (0, 0, 0);
        for seed in 1..=4u64 {
            let config = AgentConfig {
                upload_batch_records: 12,
                upload_max_age: SimDuration::from_secs(20),
                buffer_cap_bytes: 64 * 30,
                upload_retries: 2,
                log_cap_bytes: (seed as usize % 3) * 10 * MAX_LOG_LINE_BYTES,
                ..AgentConfig::default()
            };
            let mut packed = ResultBuffer::new(config.clone(), src);
            let mut eager = ResultBuffer::new(config, src);
            let mut rng = seed_state(seed);
            let mut now = SimTime::ZERO;
            for step in 0..3_000 {
                now += SimDuration::from_millis(next_u64(&mut rng) % 4_000);
                match next_u64(&mut rng) % 12 {
                    0..=7 => {
                        let rec = topo_record(&topo, &mut rng, src, now);
                        kinds[match rec.kind {
                            ProbeKind::TcpSyn => 0,
                            ProbeKind::TcpPayload(_) => 1,
                            ProbeKind::Http => 2,
                        }] += 1;
                        outcomes[match rec.outcome {
                            ProbeOutcome::Success { .. } => 0,
                            ProbeOutcome::Timeout => 1,
                            ProbeOutcome::Refused => 2,
                        }] += 1;
                        packed.push_record(rec);
                        eager.push_record(rec);
                    }
                    8 | 9 => {
                        let batch = packed.begin_upload();
                        let want = eager.begin_upload_eager(&topo);
                        if let Some(b) = &batch {
                            assert_eq!(b.src(), src);
                            assert_eq!(b.resident_bytes(), 32 * b.len());
                            batches += 1;
                        }
                        let got = batch.map(|b| b.records(&topo).collect::<Vec<_>>());
                        assert_eq!(got, want, "seed {seed} step {step}");
                    }
                    _ => {
                        let ok = next_u64(&mut rng).is_multiple_of(3);
                        let before = eager.discarded();
                        let retry = packed.on_upload_result(ok);
                        assert_eq!(retry, eager.on_upload_result(ok), "seed {seed} step {step}");
                        retries += usize::from(retry);
                        given_up += usize::from(eager.discarded() > before && !ok);
                    }
                }
                assert_eq!(packed.len(), eager.len(), "seed {seed} step {step}");
                assert_eq!(packed.discarded(), eager.discarded());
                assert_eq!(packed.has_pending(), eager.has_pending());
            }
        }
        assert!(kinds.iter().all(|&n| n > 0), "every kind: {kinds:?}");
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "every outcome: {outcomes:?}"
        );
        assert!(batches > 0 && retries > 0 && given_up > 0);
    }
}
