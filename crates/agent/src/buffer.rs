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
//! An agent holds each result once: a [`ProbeRecord`] until its upload and
//! a packed 24-byte log entry until the cap evicts it. The ring stands in
//! for the paper's log *file*; text exists only while `log_lines` is read.

use crate::config::AgentConfig;
use pingmesh_types::{ProbeOutcome, ProbeRecord, ServerId, SimDuration, SimTime};
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

/// One log line's per-record fields, `ProbeOutcome` split into `rtt` + `kind`.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    ts: SimTime,
    rtt: SimDuration,
    dst: ServerId,
    kind: OutcomeKind,
}

#[derive(Debug, Clone, Copy)]
enum OutcomeKind {
    Success,
    Timeout,
    Refused,
}

const _: () = assert!(std::mem::size_of::<LogEntry>() <= 24);

/// The agent's in-memory result buffer plus capped local log.
#[derive(Debug)]
pub struct ResultBuffer {
    config: AgentConfig,
    src: ServerId,
    records: Vec<ProbeRecord>,
    pending: Option<PendingUpload>,
    /// Records dropped (buffer overflow or upload give-up).
    discarded: u64,
    /// Capped local log: newest lines win.
    log: VecDeque<LogEntry>,
}

impl ResultBuffer {
    /// Creates an empty buffer for the agent running on `src`.
    pub fn new(config: AgentConfig, src: ServerId) -> Self {
        Self {
            config,
            src,
            records: Vec::new(),
            pending: None,
            discarded: 0,
            log: VecDeque::new(),
        }
    }

    /// Number of buffered (not yet batched) records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records discarded so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Appends a record; drops it (counting) if the byte cap is reached.
    pub fn push(&mut self, rec: ProbeRecord) {
        debug_assert_eq!(rec.src, self.src, "one buffer per agent");
        if (self.records.len() + 1) * rec.wire_size() > self.config.buffer_cap_bytes {
            self.discarded += 1;
            return;
        }
        self.log_line(&rec);
        self.records.push(rec);
    }

    /// Evicts before it inserts, so a ring at its working size never grows
    /// past it; a cap below one line has nothing to evict and keeps nothing.
    fn log_line(&mut self, rec: &ProbeRecord) {
        let max_lines = self.config.log_cap_bytes / MAX_LOG_LINE_BYTES;
        if self.log.len() >= max_lines && self.log.pop_front().is_none() {
            return;
        }
        let (kind, rtt) = match rec.outcome {
            ProbeOutcome::Success { rtt } => (OutcomeKind::Success, rtt),
            ProbeOutcome::Timeout => (OutcomeKind::Timeout, SimDuration::ZERO),
            ProbeOutcome::Refused => (OutcomeKind::Refused, SimDuration::ZERO),
        };
        self.log.push_back(LogEntry {
            ts: rec.ts,
            rtt,
            dst: rec.dst,
            kind,
        });
    }

    /// The capped local log (oldest first), rendered on read as
    /// `ts_us,src,dst,outcome`.
    pub fn log_lines(&self) -> impl Iterator<Item = String> + '_ {
        self.log.iter().map(|e| {
            let outcome = match e.kind {
                OutcomeKind::Success => ProbeOutcome::Success { rtt: e.rtt },
                OutcomeKind::Timeout => ProbeOutcome::Timeout,
                OutcomeKind::Refused => ProbeOutcome::Refused,
            };
            format!("{},{},{},{:?}", e.ts.as_micros(), self.src, e.dst, outcome)
        })
    }

    /// Whether an upload should fire now (batch size or age trigger), and
    /// no batch is already in flight.
    pub fn upload_due(&self, now: SimTime) -> bool {
        self.pending.is_none()
            && self.records.first().is_some_and(|oldest| {
                self.records.len() >= self.config.upload_batch_records
                    || now.since(oldest.ts) >= self.config.upload_max_age
            })
    }

    /// Cuts the current records into a batch the caller owns for the whole
    /// retry cycle and drops afterwards; the next cycle's buffer starts at
    /// this batch's length. `None` if one is pending or nothing is buffered.
    pub fn begin_upload(&mut self) -> Option<Vec<ProbeRecord>> {
        if self.pending.is_some() || self.records.is_empty() {
            return None;
        }
        let next = Vec::with_capacity(self.records.len());
        let records = std::mem::replace(&mut self.records, next);
        self.pending = Some(PendingUpload {
            len: records.len(),
            attempts: 1,
        });
        Some(records)
    }

    /// Reports the uploader's result. Returns `true` if the caller should
    /// retry with the batch it already holds: on failure the batch stays
    /// pending until the retry budget is exhausted, then it is discarded.
    pub fn on_upload_result(&mut self, ok: bool) -> bool {
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
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_types::backoff::{next_u64, seed_state};
    use pingmesh_types::{DcId, PodId, PodsetId, ProbeKind, QosClass};

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
        b.push(rec(1));
        b.push(rec(2));
        assert!(!b.upload_due(SimTime(10)));
        b.push(rec(3));
        assert!(b.upload_due(SimTime(10)));
        let batch = b.begin_upload().unwrap();
        assert_eq!(batch.len(), 3);
        assert!(b.is_empty());
    }

    #[test]
    fn age_triggers_upload() {
        let mut b = buffer(small_config());
        b.push(rec(0));
        assert!(!b.upload_due(SimTime(59_000_000)));
        assert!(b.upload_due(SimTime(60_000_000)));
    }

    #[test]
    fn no_double_batches_in_flight() {
        let mut b = buffer(small_config());
        for i in 0..3 {
            b.push(rec(i));
        }
        assert!(b.begin_upload().is_some());
        b.push(rec(10));
        b.push(rec(11));
        b.push(rec(12));
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
            b.push(rec(i));
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

    /// Successor of the ping-pong test: between uploads the only batch
    /// memory an agent holds is the next cycle's buffer, one batch long.
    #[test]
    fn idle_agent_holds_one_exact_size_buffer_and_refills_it_in_place() {
        let mut b = buffer(small_config());
        for i in 0..3 {
            b.push(rec(i));
        }
        let batch = b.begin_upload().unwrap();
        assert!(!b.on_upload_result(true));
        drop(batch); // all `AgentFleet::recycle_batch` does
        assert_eq!(b.records.capacity(), 3, "no spare beyond one batch");
        let ptr = b.records.as_ptr();
        for i in 0..3 {
            b.push(rec(i));
            assert_eq!(b.records.as_ptr(), ptr, "refill does not reallocate");
        }
    }

    #[test]
    fn buffer_cap_drops_excess_records() {
        let mut b = buffer(small_config());
        for i in 0..20 {
            b.push(rec(i));
        }
        assert_eq!(b.len(), 10, "cap = ten records");
        assert_eq!(b.discarded(), 10);
    }

    #[test]
    fn local_log_is_byte_capped() {
        let mut b = buffer(small_config());
        for i in 0..50 {
            b.push(rec(i));
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
                b.push(*r);
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
                b.push(*r);
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
}
