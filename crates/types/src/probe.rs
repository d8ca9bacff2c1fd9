//! Probe descriptions and results.
//!
//! A *probe* is one measurement: a fresh TCP connection (new ephemeral
//! source port) to a peer, optionally followed by a payload echo or an HTTP
//! GET. The agent records one [`ProbeRecord`] per probe; these records are
//! the unit of data uploaded to the store and consumed by every DSA job.

use crate::id::{DcId, PodId, PodsetId, ServerId};
use crate::net::QosClass;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of probe to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeKind {
    /// Pure TCP connect: the RTT is the SYN / SYN-ACK round trip. This is
    /// the latency the paper reports unless stated otherwise.
    TcpSyn,
    /// TCP connect followed by an echoed payload of the given length in
    /// bytes (paper: typically 800–1200 bytes in one packet). Catches
    /// packet-length-dependent drops (FCS / SerDes errors).
    TcpPayload(u32),
    /// HTTP GET against the agent's embedded responder. Exercises the same
    /// code path applications use.
    Http,
}

impl ProbeKind {
    /// Payload bytes carried by this probe kind (0 for SYN-only).
    pub fn payload_bytes(self) -> u32 {
        match self {
            ProbeKind::TcpSyn => 0,
            ProbeKind::TcpPayload(n) => n,
            // A minimal GET request + response headers; modelled as a small
            // payload exchange.
            ProbeKind::Http => 256,
        }
    }

    /// Whether the probe performs a payload round trip after connecting.
    pub fn has_payload(self) -> bool {
        self.payload_bytes() > 0
    }
}

impl fmt::Display for ProbeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeKind::TcpSyn => write!(f, "tcp-syn"),
            ProbeKind::TcpPayload(n) => write!(f, "tcp-payload({n})"),
            ProbeKind::Http => write!(f, "http"),
        }
    }
}

/// The observable outcome of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeOutcome {
    /// The probe completed; RTT as measured by the client.
    ///
    /// Note that a probe whose first SYN was dropped still *succeeds* —
    /// with an RTT of ≈3 s (one drop) or ≈9 s (two drops). The DSA
    /// drop-rate heuristic (paper §4.2) relies on exactly this signature.
    Success {
        /// Measured round-trip time.
        rtt: SimDuration,
    },
    /// All SYN (re)transmissions were lost; the connect attempt timed out.
    /// Failed probes are excluded from the drop-rate denominator because
    /// the client cannot distinguish path loss from a dead peer.
    Timeout,
    /// The peer refused the connection (agent not listening).
    Refused,
}

impl ProbeOutcome {
    /// True if the probe produced an RTT sample.
    pub fn is_success(self) -> bool {
        matches!(self, ProbeOutcome::Success { .. })
    }

    /// RTT if successful.
    pub fn rtt(self) -> Option<SimDuration> {
        match self {
            ProbeOutcome::Success { rtt } => Some(rtt),
            _ => None,
        }
    }
}

/// One measurement record as uploaded by an agent.
///
/// Scope fields (`src_pod` … `dst_dc`) are denormalized into the record —
/// mirroring how the paper's SCOPE jobs join probe logs against topology
/// metadata once at ingest so that every aggregation afterwards is a pure
/// group-by.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// When the probe was launched.
    pub ts: SimTime,
    /// Probing server.
    pub src: ServerId,
    /// Probed server.
    pub dst: ServerId,
    /// Pod of the probing server.
    pub src_pod: PodId,
    /// Pod of the probed server.
    pub dst_pod: PodId,
    /// Podset of the probing server.
    pub src_podset: PodsetId,
    /// Podset of the probed server.
    pub dst_podset: PodsetId,
    /// Data center of the probing server.
    pub src_dc: DcId,
    /// Data center of the probed server.
    pub dst_dc: DcId,
    /// What was sent.
    pub kind: ProbeKind,
    /// QoS class of the probe.
    pub qos: QosClass,
    /// Ephemeral source port used (fresh per probe).
    pub src_port: u16,
    /// Destination port probed.
    pub dst_port: u16,
    /// Outcome.
    pub outcome: ProbeOutcome,
}

impl ProbeRecord {
    /// True when source and destination share a pod (same ToR).
    pub fn is_intra_pod(&self) -> bool {
        self.src_pod == self.dst_pod
    }

    /// True when source and destination are in different DCs.
    pub fn is_inter_dc(&self) -> bool {
        self.src_dc != self.dst_dc
    }

    /// Approximate serialized size in bytes, used to account for upload
    /// bandwidth and the agent's bounded in-memory buffer.
    pub fn wire_size(&self) -> usize {
        Self::WIRE_SIZE
    }

    /// Every record's wire size: 9 fixed fields at 4-8 bytes each in the
    /// CSV-ish upload format.
    pub const WIRE_SIZE: usize = 64;
}

/// Aggregate of probe outcomes used when classifying a (src, dst) pair
/// inside one analysis window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairStats {
    /// Successful probes with normal (sub-second) RTT.
    pub ok: u64,
    /// Successful probes with RTT ≈ 3 s (one SYN drop).
    pub rtt_3s: u64,
    /// Successful probes with RTT ≈ 9 s (two SYN drops).
    pub rtt_9s: u64,
    /// Probes that failed entirely (connect timeout / refused).
    pub failed: u64,
}

impl PairStats {
    /// Total probes observed for the pair.
    pub fn total(&self) -> u64 {
        self.ok + self.rtt_3s + self.rtt_9s + self.failed
    }

    /// Successful probes (denominator of the drop-rate heuristic).
    pub fn successful(&self) -> u64 {
        self.ok + self.rtt_3s + self.rtt_9s
    }

    /// The paper's packet drop rate estimate for this pair:
    /// `(rtt_3s + rtt_9s) / successful` (§4.2). A 9 s connection counts
    /// as **one** drop because successive SYN drops are not independent.
    pub fn drop_rate(&self) -> f64 {
        let succ = self.successful();
        if succ == 0 {
            return 0.0;
        }
        (self.rtt_3s + self.rtt_9s) as f64 / succ as f64
    }

    /// True when the pair failed deterministically: probes were attempted
    /// and none ever succeeded. This is the per-pair black-hole symptom.
    pub fn is_deterministic_failure(&self) -> bool {
        self.failed > 0 && self.successful() == 0
    }

    /// Merges another window's stats into this one.
    pub fn merge(&mut self, other: &PairStats) {
        self.ok += other.ok;
        self.rtt_3s += other.rtt_3s;
        self.rtt_9s += other.rtt_9s;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn probe_kind_payloads() {
        assert_eq!(ProbeKind::TcpSyn.payload_bytes(), 0);
        assert!(!ProbeKind::TcpSyn.has_payload());
        assert_eq!(ProbeKind::TcpPayload(900).payload_bytes(), 900);
        assert!(ProbeKind::Http.has_payload());
    }

    #[test]
    fn outcome_accessors() {
        let ok = ProbeOutcome::Success {
            rtt: SimDuration::from_micros(250),
        };
        assert!(ok.is_success());
        assert_eq!(ok.rtt(), Some(SimDuration::from_micros(250)));
        assert!(!ProbeOutcome::Timeout.is_success());
        assert_eq!(ProbeOutcome::Refused.rtt(), None);
    }

    #[test]
    fn pair_stats_drop_rate_follows_paper_heuristic() {
        let s = PairStats {
            ok: 9_996,
            rtt_3s: 3,
            rtt_9s: 1,
            failed: 7,
        };
        // failed probes are excluded from the denominator; a 9s connect
        // counts as a single drop.
        let expect = 4.0 / 10_000.0;
        assert!((s.drop_rate() - expect).abs() < 1e-12);
    }

    #[test]
    fn pair_stats_deterministic_failure() {
        let dead = PairStats {
            failed: 12,
            ..Default::default()
        };
        assert!(dead.is_deterministic_failure());
        let flaky = PairStats {
            ok: 1,
            failed: 11,
            ..Default::default()
        };
        assert!(!flaky.is_deterministic_failure());
        assert!(!PairStats::default().is_deterministic_failure());
    }

    #[test]
    fn pair_stats_merge_adds_fields() {
        let mut a = PairStats {
            ok: 1,
            rtt_3s: 2,
            rtt_9s: 3,
            failed: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.total(), 20);
        assert_eq!(a.successful(), 12);
    }

    #[test]
    fn drop_rate_with_no_successes_is_zero() {
        let s = PairStats {
            failed: 5,
            ..Default::default()
        };
        assert_eq!(s.drop_rate(), 0.0);
    }
}
