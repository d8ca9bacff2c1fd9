//! The upload frame the codec gates share: a real 2,000-record batch that
//! takes every `ProbeKind`, `QosClass` and `ProbeOutcome` arm and `ts` up
//! to `u64::MAX`, and the frame checksum recomputed from its definition so
//! a test can re-seal a frame it has edited — then what rejects it is the
//! structure behind the checksum, not the checksum.

use pingmesh::dsa::durable::{append_frame_len, encode_upload_frame_into};
use pingmesh::types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};

/// Records in the corpus frame.
pub const RECORDS: u64 = 2_000;

/// Offset of the first record: the frame header `[len u32][crc u64]`, then
/// the append header `[tag u8][dc u32][t u64][epoch_after u64][count u32]`.
pub const FIRST_RECORD: usize = 12 + 25;

pub fn records() -> Vec<ProbeRecord> {
    (0..RECORDS)
        .map(|i| ProbeRecord {
            ts: SimTime(if i == RECORDS - 1 {
                u64::MAX
            } else {
                i * 600_000_123
            }),
            src: ServerId(i as u32),
            dst: ServerId(u32::MAX - i as u32),
            src_pod: PodId(i as u32 / 4),
            dst_pod: PodId(7),
            src_podset: PodsetId(i as u32 / 8),
            dst_podset: PodsetId(1),
            src_dc: DcId(3),
            dst_dc: DcId(i as u32 % 2),
            kind: match i % 3 {
                0 => ProbeKind::TcpSyn,
                1 => ProbeKind::TcpPayload(1_000 + i as u32),
                _ => ProbeKind::Http,
            },
            qos: if i % 2 == 0 {
                QosClass::High
            } else {
                QosClass::Low
            },
            src_port: 32_768 + i as u16,
            dst_port: u16::MAX,
            outcome: match i % 4 {
                0 => ProbeOutcome::Timeout,
                1 => ProbeOutcome::Refused,
                _ => ProbeOutcome::Success {
                    rtt: SimDuration::from_micros(250 + i * 3_000_000),
                },
            },
        })
        .collect()
}

/// `records` as one upload frame.
pub fn frame(records: &[ProbeRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(append_frame_len(records.len()));
    encode_upload_frame_into(&mut out, records);
    out
}

/// Rewrites the checksum of the frame at the head of `frame` over the
/// payload its `len` names (or as much of it as is there).
pub fn reseal(frame: &mut [u8]) {
    if frame.len() < 12 {
        return;
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    let end = frame.len().min(12 + len);
    let crc = fnv64(&frame[12..end]);
    frame[4..12].copy_from_slice(&crc.to_le_bytes());
}

/// The frame checksum as `DESIGN.md` §13 defines it: FNV-1a over 8-byte
/// little-endian lanes, then the remainder bytes, then the length.
fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = bytes.chunks_exact(8);
    for w in &mut lanes {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in lanes.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}
