//! Durable persistence under [`CosmosStore`](crate::CosmosStore): WAL +
//! segment files + deterministic crash recovery.
//!
//! The paper's Cosmos back end is a durable append-only store; this
//! module gives the in-memory extent store the same property. The design
//! is a classic WAL-plus-checkpoint pair:
//!
//! * **Write-ahead log** (`wal-<seq>.log`): every accepted append (and
//!   every retire) is framed as `[len u32][crc u64][payload]` and written
//!   to the WAL *before* the in-memory mutation is applied. A batch is
//!   acknowledged only after its frame reaches the OS. Torn tails
//!   (partial frame at EOF after a crash) and corrupt checksums are
//!   detected at recovery and truncated away — torn frames were never
//!   acknowledged, so truncation loses nothing that was promised.
//! * **Upload frame**: an agent's upload body is one append frame
//!   ([`encode_upload_frame_into`] / [`decode_upload_frame`]), so one
//!   record codec is on the wire, in the WAL and in segments, and one
//!   reader checks every frame, whether it came off a socket or a disk.
//! * **Segment files** (`seg-<id>.dat`): at checkpoint, every sealed
//!   extent is persisted once as an immutable segment using a fixed-width
//!   64-byte record codec (matching `ProbeRecord::wire_size()`). The
//!   header carries the extent's `sorted` flag and time bounds, so the
//!   store's `partition_point` window trimming extends to disk:
//!   [`SegmentReader::read_window`] binary-searches a sorted segment on
//!   disk and bulk-reads only the in-window byte range, and
//!   non-overlapping segments are skipped from the header alone.
//! * **Manifest** (`MANIFEST`, version 3): the commit point. It names the
//!   live segments and `wal_seq`, the first WAL file recovery replays. A
//!   checkpoint runs in three phases so the store lock is held only for
//!   the first and the last:
//!   - *plan* (locked): rotate the live WAL to `wal-<n+1>`, freezing every
//!     older file; the store then seals each stream's open extent, and the
//!     owning [`CheckpointPlan`] takes every sealed extent without a
//!     segment as a shared `Arc`;
//!   - *write* (unlocked, [`CheckpointPlan::write`]): an fsync of the
//!     frozen WAL files, then the new segments and `MANIFEST-<n+1>.tmp`,
//!     all fsynced;
//!   - *commit* (locked): refuse a stale plan, else rename the manifest
//!     into place; the returned [`CheckpointGc`] unlinks the old files
//!     after the lock is released.
//!
//!   So every record a committed manifest covers is in one of its
//!   segments. A crash anywhere leaves whichever manifest survives naming
//!   a complete, consistent set; everything else is an orphan removed at
//!   the next commit.
//!
//! **Recovery** loads the manifest's segments as sealed extents, then
//! replays every `wal-j` with `j ≥ wal_seq` in ascending order (appends
//! rebuild extents, retires re-drop expired ones; a torn or corrupt frame
//! ends its own file, not the replay). Every file boundary is a plan's
//! rotation, so the store seals its open extents there and the recovered
//! extent boundaries are the pre-crash ones. It then refolds the
//! per-(stream, window) partial aggregates from the surviving raw
//! records, and drops partials for windows closed before the persisted
//! retire high-water mark. Because the window aggregates are
//! order-independent CRDTs, the refold is bit-identical to the pre-crash
//! fold for append-only histories; with window-aligned retention horizons
//! (the pipeline's convention) it stays identical under retirement too.
//!
//! **IO-error resilience**: WAL writes retry on a seeded
//! [`Backoff`] (bounded attempts, jittered millisecond delays) and then
//! *fail closed* — the store refuses further appends instead of lying
//! about durability, surfaces `pingmesh_store_io_errors_total`, and the
//! next checkpoint's rotation to a fresh WAL file heals the failure (the
//! failed write's torn bytes end the frozen file, which replays up to
//! them).

use pingmesh_types::{
    Backoff, DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId,
    SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed on-disk width of one encoded [`ProbeRecord`] — equal to
/// [`ProbeRecord::wire_size`], so logical-byte accounting matches disk.
pub const RECORD_WIRE: usize = 64;

/// WAL frame header: `len: u32` + `crc: u64` (FNV-1a over the payload).
const FRAME_HEADER: usize = 12;

/// Append payload header: tag, `dc: u32`, `t: u64`, `epoch_after: u64`,
/// `count: u32`; the records follow.
const APPEND_HEADER: usize = 25;

/// Upper bound on a sane frame payload; larger lengths at recovery are
/// treated as corruption, not allocation requests.
const MAX_FRAME: u32 = 64 << 20;

/// Segment header bytes: magic, version, dc, count, sorted+pad, bounds, crc.
const SEG_HEADER: usize = 48;
const SEG_MAGIC: u32 = 0x504D_5347; // "PMSG"
const SEG_VERSION: u32 = 1;

/// WAL write attempts beyond the first before failing closed.
const WAL_WRITE_RETRIES: u32 = 4;

/// How many checkpoint thresholds the live WAL may hold before
/// [`CosmosStore::checkpoint_backlogged`](crate::CosmosStore::checkpoint_backlogged):
/// with the checkpoint in flight holding about as much again, recovery
/// replays at most this many plus one thresholds of WAL.
pub const WAL_BACKLOG_CHECKPOINTS: u64 = 4;

/// Manifest schema version, and the only one this build opens: version 3
/// checkpoints seal every open extent, so no record a manifest covers
/// lives outside its segments. A directory of any other version is
/// refused, never upgraded.
const MANIFEST_VERSION: u32 = 3;

/// Bytes per write call: some filesystems serve many page-sized writes
/// far faster than one multi-megabyte write syscall.
const WRITE_PIECE: usize = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_finish(fnv64_fold(FNV_OFFSET, bytes), bytes.len())
}

/// Folds `bytes` into the running hash `h`. FNV-1a folded over 8-byte
/// lanes instead of single bytes: one xor + multiply per word keeps
/// checksumming off the WAL hot path (~8x fewer dependent multiplies than
/// the byte-wise form) while staying deterministic and dependency-free.
/// This defines the on-disk checksum — both WAL frames and segment files
/// use it. A caller hashing in pieces passes whole lanes until the last.
fn fnv64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Mixes the hashed length in, so "shorter input + trailing zeros"
/// cannot alias the word-folded hash of the padded form.
fn fnv64_finish(h: u64, len: usize) -> u64 {
    (h ^ len as u64).wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------------------
// Fixed-width record codec
// ---------------------------------------------------------------------------

/// Encodes one record into its fixed 64-byte wire form.
pub fn encode_record(r: &ProbeRecord, out: &mut [u8; RECORD_WIRE]) {
    out.fill(0);
    out[0..8].copy_from_slice(&r.ts.as_micros().to_le_bytes());
    out[8..12].copy_from_slice(&r.src.0.to_le_bytes());
    out[12..16].copy_from_slice(&r.dst.0.to_le_bytes());
    out[16..20].copy_from_slice(&r.src_pod.0.to_le_bytes());
    out[20..24].copy_from_slice(&r.dst_pod.0.to_le_bytes());
    out[24..28].copy_from_slice(&r.src_podset.0.to_le_bytes());
    out[28..32].copy_from_slice(&r.dst_podset.0.to_le_bytes());
    out[32..36].copy_from_slice(&r.src_dc.0.to_le_bytes());
    out[36..40].copy_from_slice(&r.dst_dc.0.to_le_bytes());
    let (kind_tag, kind_arg) = match r.kind {
        ProbeKind::TcpSyn => (0u8, 0u32),
        ProbeKind::TcpPayload(n) => (1, n),
        ProbeKind::Http => (2, 0),
    };
    out[40] = kind_tag;
    out[41] = match r.qos {
        QosClass::High => 0,
        QosClass::Low => 1,
    };
    let (outcome_tag, rtt) = match r.outcome {
        ProbeOutcome::Success { rtt } => (0u8, rtt.as_micros()),
        ProbeOutcome::Timeout => (1, 0),
        ProbeOutcome::Refused => (2, 0),
    };
    out[42] = outcome_tag;
    out[44..48].copy_from_slice(&kind_arg.to_le_bytes());
    out[48..50].copy_from_slice(&r.src_port.to_le_bytes());
    out[50..52].copy_from_slice(&r.dst_port.to_le_bytes());
    out[56..64].copy_from_slice(&rtt.to_le_bytes());
}

/// Decodes one record from its fixed 64-byte wire form.
pub fn decode_record(buf: &[u8; RECORD_WIRE]) -> Result<ProbeRecord, FrameError> {
    let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
    let u16_at = |o: usize| u16::from_le_bytes(buf[o..o + 2].try_into().unwrap());
    let kind = match buf[40] {
        0 => ProbeKind::TcpSyn,
        1 => ProbeKind::TcpPayload(u32_at(44)),
        2 => ProbeKind::Http,
        _ => return Err(FrameError::Corrupt("unknown probe kind tag")),
    };
    let qos = match buf[41] {
        0 => QosClass::High,
        1 => QosClass::Low,
        _ => return Err(FrameError::Corrupt("unknown qos tag")),
    };
    let outcome = match buf[42] {
        0 => ProbeOutcome::Success {
            rtt: SimDuration::from_micros(u64_at(56)),
        },
        1 => ProbeOutcome::Timeout,
        2 => ProbeOutcome::Refused,
        _ => return Err(FrameError::Corrupt("unknown outcome tag")),
    };
    Ok(ProbeRecord {
        ts: SimTime(u64_at(0)),
        src: ServerId(u32_at(8)),
        dst: ServerId(u32_at(12)),
        src_pod: PodId(u32_at(16)),
        dst_pod: PodId(u32_at(20)),
        src_podset: PodsetId(u32_at(24)),
        dst_podset: PodsetId(u32_at(28)),
        src_dc: DcId(u32_at(32)),
        dst_dc: DcId(u32_at(36)),
        kind,
        qos,
        src_port: u16_at(48),
        dst_port: u16_at(50),
        outcome,
    })
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Why a frame or a record was refused. It carries only static text, so
/// refusing bytes read off a socket costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes end inside the header or inside the payload it
    /// announces: a torn write, or a truncated body.
    Torn,
    /// The bytes are there but wrong: a length past the frame limit, a
    /// checksum mismatch, trailing bytes, or a payload that does not
    /// decode.
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => f.write_str("torn frame"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Bytes of one append frame holding `records` records: what the WAL
/// writes per accepted batch and what an upload body is.
pub const fn append_frame_len(records: usize) -> usize {
    FRAME_HEADER + APPEND_HEADER + records * RECORD_WIRE
}

/// Appends one fully-framed `WalOp::Append` entry to `out`: frame
/// header, then the payload encoded straight from the caller's slice
/// (no `WalOp` clone, no intermediate payload buffer), then the length
/// and checksum patched into the header. The only writer of the append
/// layout: the live append path, the torn-write hook and the agent's
/// upload body ([`encode_upload_frame_into`]) all emit (a prefix of) this
/// frame.
fn encode_append_frame_into(
    out: &mut Vec<u8>,
    dc: DcId,
    t: SimTime,
    epoch_after: u64,
    records: &[ProbeRecord],
) {
    let frame_start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    out.push(1u8);
    out.extend_from_slice(&dc.0.to_le_bytes());
    out.extend_from_slice(&t.as_micros().to_le_bytes());
    out.extend_from_slice(&epoch_after.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    let mut buf = [0u8; RECORD_WIRE];
    for r in records {
        encode_record(r, &mut buf);
        out.extend_from_slice(&buf);
    }
    let payload_start = frame_start + FRAME_HEADER;
    let len = out.len() - payload_start;
    let crc = fnv64(&out[payload_start..]);
    out[frame_start..frame_start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[frame_start + 4..frame_start + 12].copy_from_slice(&crc.to_le_bytes());
}

/// The one reader of the frame envelope, for WAL bytes read back from
/// disk and upload bodies read off a socket alike: checks the first
/// frame in `buf` — header present, length within [`MAX_FRAME`] and
/// within `buf`, checksum — and returns its payload and the frame's
/// length in bytes. The only place a received frame's checksum is
/// verified.
fn read_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    let hdr = buf.get(..FRAME_HEADER).ok_or(FrameError::Torn)?;
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
    let crc = u64::from_le_bytes(hdr[4..12].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(FrameError::Corrupt("frame length past the limit"));
    }
    let end = FRAME_HEADER + len as usize;
    let payload = buf.get(FRAME_HEADER..end).ok_or(FrameError::Torn)?;
    if fnv64(payload) != crc {
        return Err(FrameError::Corrupt("frame checksum mismatch"));
    }
    Ok((payload, end))
}

/// Appends `records` to `out` as one upload body: a single append frame
/// written by the WAL's own writer, so the collector reads it with the
/// WAL's own reader. The frame's `dc` is the first record's `src_dc`,
/// `t` the newest `ts` and `epoch_after` 0 — the store assigns its own
/// when it logs the batch. Reserve [`append_frame_len`] bytes first and
/// this never allocates.
pub fn encode_upload_frame_into(out: &mut Vec<u8>, records: &[ProbeRecord]) {
    let dc = records.first().map_or(DcId(0), |r| r.src_dc);
    let t = records.iter().map(|r| r.ts).max().unwrap_or(SimTime::ZERO);
    encode_append_frame_into(out, dc, t, 0, records);
}

/// Decodes an upload body written by [`encode_upload_frame_into`]: the
/// body must be exactly one frame whose envelope passes the reader WAL
/// recovery uses, and it must hold an append (a retire frame is
/// refused). Allocates only the returned `Vec`; a body refused for its
/// envelope, its length or its record count allocates nothing.
pub fn decode_upload_frame(body: &[u8]) -> Result<Vec<ProbeRecord>, FrameError> {
    let (payload, len) = read_frame(body)?;
    if len != body.len() {
        return Err(FrameError::Corrupt("trailing bytes after the frame"));
    }
    match WalOp::decode(payload)? {
        WalOp::Append { records, .. } => Ok(records),
        WalOp::Retire { .. } => Err(FrameError::Corrupt("not an append frame")),
    }
}

// ---------------------------------------------------------------------------
// WAL ops
// ---------------------------------------------------------------------------

/// One logical WAL operation, replayed in order at recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// An acknowledged batch append to a stream.
    Append {
        /// Destination stream's data center.
        dc: DcId,
        /// Store time of the append (forensics only; not replayed).
        t: SimTime,
        /// Store epoch after this append applied.
        epoch_after: u64,
        /// The acknowledged records.
        records: Vec<ProbeRecord>,
    },
    /// A retention pass: drop everything older than `horizon`.
    Retire {
        /// Retention horizon.
        horizon: SimTime,
        /// Store epoch after the retire applied.
        epoch_after: u64,
    },
}

impl WalOp {
    /// Payload of a `Retire` entry. (An `Append` entry has one writer,
    /// [`encode_append_frame_into`], which frames it in place.)
    fn encode_retire(horizon: SimTime, epoch_after: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(17);
        out.push(2u8);
        out.extend_from_slice(&horizon.as_micros().to_le_bytes());
        out.extend_from_slice(&epoch_after.to_le_bytes());
        out
    }

    /// Decodes one payload. The record count is checked against the
    /// payload's length before anything is allocated.
    fn decode(payload: &[u8]) -> Result<WalOp, FrameError> {
        let u64_at = |o: usize| {
            payload
                .get(o..o + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .ok_or(FrameError::Corrupt("short wal payload"))
        };
        match payload.first() {
            Some(1) => {
                let dc = payload
                    .get(1..5)
                    .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                    .ok_or(FrameError::Corrupt("short append header"))?;
                let t = u64_at(5)?;
                let epoch_after = u64_at(13)?;
                let count = payload
                    .get(21..APPEND_HEADER)
                    .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                    .ok_or(FrameError::Corrupt("short append header"))?
                    as usize;
                let body = payload
                    .get(APPEND_HEADER..)
                    .filter(|b| Some(b.len()) == count.checked_mul(RECORD_WIRE))
                    .ok_or(FrameError::Corrupt("append body length mismatch"))?;
                let mut records = Vec::with_capacity(count);
                for chunk in body.chunks_exact(RECORD_WIRE) {
                    records.push(decode_record(chunk.try_into().unwrap())?);
                }
                Ok(WalOp::Append {
                    dc: DcId(dc),
                    t: SimTime(t),
                    epoch_after,
                    records,
                })
            }
            Some(2) => Ok(WalOp::Retire {
                horizon: SimTime(u64_at(1)?),
                epoch_after: u64_at(9)?,
            }),
            Some(_) => Err(FrameError::Corrupt("unknown wal op tag")),
            None => Err(FrameError::Corrupt("empty wal payload")),
        }
    }
}

/// Reads into `buf` until it is full or the reader is exhausted; returns
/// the bytes read.
fn read_up_to(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Streams the operations of one WAL file, one frame in memory at a
/// time, through [`read_frame`]: recovery's reader. The first torn or
/// corrupt frame ends the file — never the replay across files — and is
/// kept in `stop`; `valid_end` is then the length to truncate the file to.
struct LogReader {
    file: BufReader<File>,
    frame: Vec<u8>,
    valid_end: u64,
    stop: Option<FrameError>,
}

impl LogReader {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(LogReader {
            file: BufReader::with_capacity(1 << 20, File::open(path)?),
            frame: Vec::new(),
            valid_end: 0,
            stop: None,
        })
    }

    /// The next operation, or `None` at the end of the file or at its
    /// first bad frame.
    fn next_op(&mut self) -> io::Result<Option<WalOp>> {
        if self.stop.is_some() {
            return Ok(None);
        }
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        let got = read_up_to(&mut self.file, frame)?;
        if got == 0 {
            return Ok(None);
        }
        let checked = match read_frame(&frame[..got]) {
            // A whole header announcing a payload: read it, then check
            // the frame again, whole.
            Err(FrameError::Torn) if got == FRAME_HEADER => {
                let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
                frame.resize(FRAME_HEADER + len, 0);
                let got = read_up_to(&mut self.file, &mut frame[FRAME_HEADER..])?;
                read_frame(&frame[..FRAME_HEADER + got])
            }
            other => other,
        };
        match checked.and_then(|(payload, len)| Ok((WalOp::decode(payload)?, len))) {
            Ok((op, len)) => {
                self.valid_end += len as u64;
                Ok(Some(op))
            }
            Err(e) => {
                self.stop = Some(e);
                Ok(None)
            }
        }
    }
}

/// The sequence numbers `j` of the `wal-j` files in `dir` with
/// `wal_seq ≤ j < below`, ascending: the files recovery replays, in
/// order, or those a checkpoint's rotation froze.
fn wal_seqs(dir: &Path, wal_seq: u64, below: u64) -> io::Result<Vec<u64>> {
    let mut wals = Vec::new();
    for entry in fs::read_dir(dir)? {
        if let Some(j) = parse_wal_name(&entry?.file_name().to_string_lossy()) {
            if (wal_seq..below).contains(&j) {
                wals.push(j);
            }
        }
    }
    wals.sort_unstable();
    Ok(wals)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Durable metadata of one immutable segment file, recorded in the
/// manifest so recovery can size, order, and sanity-check segments
/// without trusting the files alone.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub(crate) struct SegmentMeta {
    /// Segment id; the file is `seg-<id>.dat`.
    pub id: u64,
    /// Stream (data center) the segment belongs to.
    pub dc: u32,
    /// Record count.
    pub count: u32,
    /// Whether records are non-decreasing in `ts` (enables the on-disk
    /// binary-search window trim).
    pub sorted: bool,
    /// Minimum record timestamp (µs).
    pub min_ts: u64,
    /// Maximum record timestamp (µs).
    pub max_ts: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    boot_id: u64,
    epoch_hwm: u64,
    retire_hwm: u64,
    wal_seq: u64,
    next_seg: u64,
    segments: Vec<SegmentMeta>,
}

impl Manifest {
    fn fresh() -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            boot_id: 0,
            epoch_hwm: 0,
            retire_hwm: 0,
            wal_seq: 0,
            next_seg: 0,
            segments: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// Reader over one immutable segment file. Opening reads only the fixed
/// 48-byte header, so non-overlapping segments are skipped without
/// touching their records; [`SegmentReader::read_window`] extends the
/// store's sorted-extent `partition_point` trim to disk.
#[derive(Debug)]
pub struct SegmentReader {
    file: File,
    dc: DcId,
    count: u32,
    sorted: bool,
    min_ts: SimTime,
    max_ts: SimTime,
    crc: u64,
}

impl SegmentReader {
    /// Opens a segment, reading and validating the header only.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let mut hdr = [0u8; SEG_HEADER];
        file.read_exact(&mut hdr)?;
        let u32_at = |o: usize| u32::from_le_bytes(hdr[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(hdr[o..o + 8].try_into().unwrap());
        if u32_at(0) != SEG_MAGIC {
            return Err(corrupt("bad segment magic".into()));
        }
        if u32_at(4) != SEG_VERSION {
            return Err(corrupt(format!(
                "unsupported segment version {}",
                u32_at(4)
            )));
        }
        Ok(SegmentReader {
            file,
            dc: DcId(u32_at(8)),
            count: u32_at(12),
            sorted: hdr[16] != 0,
            min_ts: SimTime(u64_at(24)),
            max_ts: SimTime(u64_at(32)),
            crc: u64_at(40),
        })
    }

    /// Stream (data center) this segment belongs to.
    pub fn dc(&self) -> DcId {
        self.dc
    }

    /// Record count, from the header.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether records are time-sorted, from the header.
    pub fn sorted(&self) -> bool {
        self.sorted
    }

    /// Segment time bounds `(min_ts, max_ts)`, from the header.
    pub fn bounds(&self) -> (SimTime, SimTime) {
        (self.min_ts, self.max_ts)
    }

    /// Whether any record could fall in `[from, to)` — header-only, the
    /// on-disk analogue of the in-memory extent skip.
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.count > 0 && self.min_ts < to && self.max_ts >= from
    }

    fn ts_at(&mut self, idx: u32) -> io::Result<u64> {
        self.file.seek(SeekFrom::Start(
            (SEG_HEADER + idx as usize * RECORD_WIRE) as u64,
        ))?;
        let mut buf = [0u8; 8];
        self.file.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// First index whose timestamp is `>= t` — a `partition_point` run on
    /// disk: O(log n) seeks, each reading one 8-byte timestamp.
    fn partition_point_disk(&mut self, t: SimTime) -> io::Result<u32> {
        let (mut lo, mut hi) = (0u32, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.ts_at(mid)? < t.as_micros() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    fn read_range(&mut self, lo: u32, hi: u32) -> io::Result<Vec<ProbeRecord>> {
        let n = (hi - lo) as usize;
        let mut bytes = vec![0u8; n * RECORD_WIRE];
        self.file.seek(SeekFrom::Start(
            (SEG_HEADER + lo as usize * RECORD_WIRE) as u64,
        ))?;
        self.file.read_exact(&mut bytes)?;
        let mut out = Vec::with_capacity(n);
        for chunk in bytes.chunks_exact(RECORD_WIRE) {
            out.push(decode_record(chunk.try_into().unwrap())?);
        }
        Ok(out)
    }

    /// Reads every record, verifying the header checksum — the recovery
    /// path. Corruption is an error, not silent loss.
    pub fn read_all(&mut self) -> io::Result<Vec<ProbeRecord>> {
        let n = self.count as usize;
        let mut bytes = vec![0u8; n * RECORD_WIRE];
        self.file.seek(SeekFrom::Start(SEG_HEADER as u64))?;
        self.file.read_exact(&mut bytes)?;
        if fnv64(&bytes) != self.crc {
            return Err(corrupt("segment checksum mismatch".into()));
        }
        let mut out = Vec::with_capacity(n);
        for chunk in bytes.chunks_exact(RECORD_WIRE) {
            out.push(decode_record(chunk.try_into().unwrap())?);
        }
        Ok(out)
    }

    /// Records with `ts` in `[from, to)`. Sorted segments are trimmed by
    /// on-disk binary search and bulk-read only the in-window byte range;
    /// unsorted ones fall back to a full read + filter (checksummed).
    pub fn read_window(&mut self, from: SimTime, to: SimTime) -> io::Result<Vec<ProbeRecord>> {
        if !self.overlaps(from, to) {
            return Ok(Vec::new());
        }
        if self.sorted {
            let lo = self.partition_point_disk(from)?;
            let hi = self.partition_point_disk(to)?;
            if lo >= hi {
                return Ok(Vec::new());
            }
            self.read_range(lo, hi)
        } else {
            Ok(self
                .read_all()?
                .into_iter()
                .filter(|r| r.ts >= from && r.ts < to)
                .collect())
        }
    }
}

/// Writes a segment file: a zeroed header, the records [`WRITE_PIECE`]
/// bytes at a time while their checksum folds, then the header over the
/// placeholder. So a checkpoint never holds a segment-sized buffer (up to
/// 16 MB at the default extent cap).
fn write_segment(path: &Path, meta: &SegmentMeta, records: &[ProbeRecord]) -> io::Result<File> {
    let mut file = create_file(path)?;
    file.write_all(&[0u8; SEG_HEADER])?;
    let mut piece = Vec::with_capacity(WRITE_PIECE.min(records.len() * RECORD_WIRE));
    let (mut h, mut rec) = (FNV_OFFSET, [0u8; RECORD_WIRE]);
    for chunk in records.chunks(WRITE_PIECE / RECORD_WIRE) {
        piece.clear();
        for r in chunk {
            encode_record(r, &mut rec);
            piece.extend_from_slice(&rec);
        }
        h = fnv64_fold(h, &piece);
        file.write_all(&piece)?;
    }
    let mut hdr = Vec::with_capacity(SEG_HEADER);
    hdr.extend_from_slice(&SEG_MAGIC.to_le_bytes());
    hdr.extend_from_slice(&SEG_VERSION.to_le_bytes());
    hdr.extend_from_slice(&meta.dc.to_le_bytes());
    hdr.extend_from_slice(&(records.len() as u32).to_le_bytes());
    hdr.push(meta.sorted as u8);
    hdr.extend_from_slice(&[0u8; 7]);
    hdr.extend_from_slice(&meta.min_ts.to_le_bytes());
    hdr.extend_from_slice(&meta.max_ts.to_le_bytes());
    hdr.extend_from_slice(&fnv64_finish(h, records.len() * RECORD_WIRE).to_le_bytes());
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&hdr)?;
    Ok(file)
}

// ---------------------------------------------------------------------------
// Checkpoint phases: plan (locked) → write (unlocked) → commit (locked)
// ---------------------------------------------------------------------------

/// A sealed extent not yet persisted, as the store hands it to a plan:
/// the store's stable extent id (the commit stamps the segment id back
/// onto the extent by it), its segment metadata with the id still to be
/// reserved, and its records, shared with the store (sealed, so never
/// written again) until the segment lands.
pub(crate) type FreshExtent = (u64, SegmentMeta, Arc<Vec<ProbeRecord>>);

/// Phase 1's output: everything the write phase needs, owned, so the
/// store lock can be released before a byte is written. Sealed extents
/// are shared `Arc`s, not copies.
#[derive(Debug)]
pub struct CheckpointPlan {
    dir: PathBuf,
    boot_id: u64,
    /// The committed `wal_seq` the plan was taken against.
    base_seq: u64,
    /// The live WAL the plan rotated to; the new `wal_seq`.
    new_seq: u64,
    /// Fresh extents with their reserved segment ids.
    fresh: Vec<FreshExtent>,
    /// The manifest this checkpoint commits.
    manifest: Manifest,
}

/// `(dc, extent id, segment id)`: a fresh segment and the extent it
/// persists.
pub(crate) type Assigned = (u32, u64, u64);

/// Phase 2's output: the files are on disk and fsynced; only the
/// manifest rename is left.
#[derive(Debug)]
pub struct WrittenCheckpoint {
    dir: PathBuf,
    boot_id: u64,
    base_seq: u64,
    new_seq: u64,
    assigned: Vec<Assigned>,
    /// Segment ids the manifest names.
    live: BTreeSet<u64>,
    /// One past the last segment id the plan reserved.
    seg_end: u64,
}

/// Files a checkpoint's commit left behind, unlinked by [`CheckpointGc::run`]
/// once the store lock is released.
#[derive(Debug)]
#[must_use = "run it after releasing the store lock, or the files wait for the next commit"]
pub struct CheckpointGc {
    dir: PathBuf,
    garbage: Garbage,
}

#[derive(Debug)]
enum Garbage {
    /// The commit landed: every WAL file below `wal_seq`, and every
    /// segment below `seg_end` the manifest does not name, is garbage.
    /// Later plans' files lie above both bounds, so this is safe while
    /// one is being written.
    Superseded {
        wal_seq: u64,
        seg_end: u64,
        live: BTreeSet<u64>,
    },
    /// The plan was refused as stale: its own files are garbage.
    Own(Vec<PathBuf>),
}

impl CheckpointPlan {
    /// Phase 2, with the store lock released: fsyncs the frozen WAL
    /// files, writes and fsyncs the fresh segments, then writes the
    /// manifest as `MANIFEST-<n+1>.tmp` and fsyncs the directory. Nothing
    /// is committed: a crash here leaves the old manifest in force. Each
    /// record `Arc` is dropped as its segment lands.
    pub fn write(self) -> io::Result<WrittenCheckpoint> {
        let CheckpointPlan {
            dir,
            boot_id,
            base_seq,
            new_seq,
            fresh,
            manifest,
        } = self;
        // First the acknowledged bytes the rotation froze, so a segment
        // write that fails leaves none of them unsynced for long.
        for seq in wal_seqs(&dir, base_seq, new_seq)? {
            File::open(dir.join(wal_name(seq)))?.sync_data()?;
        }
        let mut assigned = Vec::with_capacity(fresh.len());
        for (extent, meta, records) in fresh {
            write_segment(&dir.join(seg_name(meta.id)), &meta, &records)?.sync_all()?;
            pingmesh_obs::registry()
                .counter("pingmesh_store_segments_written_total")
                .inc();
            assigned.push((meta.dc, extent, meta.id));
        }
        write_manifest(&dir.join(manifest_tmp_name(new_seq)), &manifest)?;
        // Pin the manifest the commit will replace with a second link, so
        // the locked rename frees no blocks: freeing them is what makes an
        // unlink or a rename over a file slow (tens of ms where the
        // filesystem discards freed blocks inline). GC drops the pin.
        let _ = fs::hard_link(dir.join("MANIFEST"), dir.join(manifest_pin_name(new_seq)));
        sync_dir(&dir);
        Ok(WrittenCheckpoint {
            dir,
            boot_id,
            base_seq,
            new_seq,
            assigned,
            live: manifest.segments.iter().map(|m| m.id).collect(),
            seg_end: manifest.next_seg,
        })
    }
}

impl WrittenCheckpoint {
    /// The garbage of a refused commit: the plan's own manifest and pin,
    /// and its segments unless another boot may have reused their ids.
    fn refused(self, same_boot: bool) -> CheckpointGc {
        let mut own = vec![
            self.dir.join(manifest_tmp_name(self.new_seq)),
            self.dir.join(manifest_pin_name(self.new_seq)),
        ];
        if same_boot {
            own.extend(self.assigned.iter().map(|a| self.dir.join(seg_name(a.2))));
        }
        CheckpointGc {
            dir: self.dir,
            garbage: Garbage::Own(own),
        }
    }
}

impl CheckpointGc {
    /// Whether the checkpoint committed (`false`: refused as stale).
    pub fn committed(&self) -> bool {
        matches!(self.garbage, Garbage::Superseded { .. })
    }

    /// Unlinks the garbage. Run it with the store lock released;
    /// dropping it instead leaves orphans that the next commit collects.
    pub fn run(self) {
        match self.garbage {
            Garbage::Own(paths) => {
                for path in paths {
                    let _ = fs::remove_file(path);
                }
            }
            Garbage::Superseded {
                wal_seq,
                seg_end,
                live,
            } => {
                // Make the rename durable before the files it replaced go.
                sync_dir(&self.dir);
                let Ok(entries) = fs::read_dir(&self.dir) else {
                    return;
                };
                let mut deleted = 0u64;
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    let seg = parse_seg_name(&name);
                    let garbage = if let Some(id) = seg {
                        id < seg_end && !live.contains(&id)
                    } else if let Some(seq) =
                        parse_wal_name(&name).or_else(|| parse_manifest_tmp_name(&name))
                    {
                        seq < wal_seq
                    } else {
                        parse_manifest_pin_name(&name).is_some_and(|seq| seq <= wal_seq)
                    };
                    if garbage && fs::remove_file(entry.path()).is_ok() {
                        deleted += u64::from(seg.is_some());
                    }
                }
                if deleted > 0 {
                    pingmesh_obs::registry()
                        .counter("pingmesh_store_segments_deleted_total")
                        .add(deleted);
                }
            }
        }
    }
}

/// A WAL file a checkpoint plan rotated away from while some of its
/// acknowledged bytes were unsynced. They count toward the flush lag
/// until a sync covers them: the commit of a checkpoint whose write
/// synced the file, or else the next group commit.
#[derive(Debug)]
struct FrozenWal {
    seq: u64,
    file: File,
    /// Length of the file's acknowledged prefix.
    end: u64,
    /// Acknowledged bytes not yet synced.
    unsynced: u64,
    /// Start of their lag clock.
    since: Instant,
}

/// A group-commit fsync taken off the store lock: cloned handles to the
/// WAL files holding unsynced bytes, each as `(file, seq, offset
/// covered)`. [`WalSync::run`] needs no lock; `DurableLog::finish_sync`
/// then clears only the bytes it covered.
#[derive(Debug)]
pub(crate) struct WalSync {
    files: Vec<(File, u64, u64)>,
    /// The store directory, when a file's entry in it may not be durable
    /// yet: a plan created the file and its checkpoint's write failed
    /// before fsyncing the directory.
    dir: Option<PathBuf>,
    started: Instant,
}

impl WalSync {
    /// `fdatasync`s the WAL files. Data-only sync suffices for an
    /// append-only log: the length update rides along with the data, and
    /// a file's existence is made durable by the directory fsync of the
    /// checkpoint that created it, or else by this sync's own.
    pub(crate) fn run(&self) -> io::Result<()> {
        for (file, ..) in &self.files {
            file.sync_data()?;
        }
        if let Some(dir) = &self.dir {
            sync_dir(dir);
        }
        Ok(())
    }
}

/// Point-in-time durability counters and gauges, surfaced through the
/// collector's `/healthz` and the `pingmesh-top` durability panel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DurabilityStats {
    /// Recovery generation: 0 on first boot, +1 per recovery.
    pub boot_id: u64,
    /// Sequence number of the live WAL file.
    pub wal_seq: u64,
    /// Frames in the live WAL.
    pub wal_entries: u64,
    /// Bytes in the live WAL.
    pub wal_bytes: u64,
    /// Acknowledged bytes of the live WAL not yet fsynced.
    pub unsynced_bytes: u64,
    /// Microseconds since the last fsync while unsynced bytes exist.
    pub flush_lag_us: u64,
    /// Live segment files.
    pub segments: u64,
    /// Segment files awaiting tombstone GC at the next checkpoint.
    pub tombstones: u64,
    /// WAL write errors observed (including retried ones).
    pub io_errors: u64,
    /// WAL write retries performed.
    pub io_retries: u64,
    /// Whether the WAL has failed closed (appends refused).
    pub failed: bool,
    /// Checkpoints committed since open.
    pub checkpoints: u64,
    /// Torn-tail truncation events seen at recovery.
    pub truncated_entries: u64,
    /// Corrupt-frame truncation events seen at recovery.
    pub corrupt_entries: u64,
    /// Records reloaded (segments + WAL replay) at recovery.
    pub recovered_records: u64,
}

/// Everything recovery needs, read from disk by [`DurableLog::open`].
#[derive(Debug, Default)]
pub(crate) struct Recovered {
    /// Segments in manifest order, with their decoded records.
    pub segments: Vec<(SegmentMeta, Vec<ProbeRecord>)>,
    /// WAL operations in log order, one list per WAL file. Each boundary
    /// between two files is a checkpoint plan's rotation, where the store
    /// sealed every open extent.
    pub ops: Vec<Vec<WalOp>>,
    /// Largest `epoch_after` in the WAL (0 if none).
    pub max_epoch: u64,
    /// Epoch high-water mark persisted at the last checkpoint.
    pub epoch_hwm: u64,
    /// Retention horizon high-water mark (manifest ∪ replayed retires).
    pub retire_hwm: u64,
    /// Log files that ended in a torn frame (truncated there).
    pub truncated_entries: u64,
    /// Log files that ended in a corrupt frame (truncated there).
    pub corrupt_entries: u64,
    /// Total records recovered from segments plus WAL replay.
    pub recovered_records: u64,
    /// Whether the directory was new: its initial state was just
    /// committed and there is nothing to recover.
    pub fresh: bool,
}

// ---------------------------------------------------------------------------
// DurableLog
// ---------------------------------------------------------------------------

/// The store's persistence engine: owns the directory, the live WAL
/// handle, and the checkpoint/commit protocol.
#[derive(Debug)]
pub(crate) struct DurableLog {
    dir: PathBuf,
    wal: File,
    /// Sequence of the live WAL file, `wal-<live_seq>.log`.
    live_seq: u64,
    /// The committed manifest's `wal_seq`: recovery starts there.
    wal_seq: u64,
    wal_bytes: u64,
    wal_entries: u64,
    next_seg: u64,
    boot_id: u64,
    retire_hwm: u64,
    live_segments: u64,
    tombstones: Vec<u64>,
    /// Prefix of the live WAL known to be on stable storage.
    synced: u64,
    /// Start of the live WAL's lag clock.
    last_sync: Instant,
    /// Files a plan rotated away from with acknowledged bytes unsynced.
    frozen: Vec<FrozenWal>,
    /// Newest WAL file whose directory entry is known to be durable.
    dir_synced_seq: u64,
    failed: bool,
    io_fault_budget: u32,
    io_errors: u64,
    io_retries: u64,
    checkpoints: u64,
    truncated_entries: u64,
    corrupt_entries: u64,
    recovered_records: u64,
    backoff_seed: u64,
}

impl DurableLog {
    /// Opens (or creates) a durable store directory, returning the live
    /// log plus everything recovery must replay. On a fresh directory the
    /// initial empty manifest and WAL are committed immediately, so a
    /// crash at any later point always finds a consistent commit point. A
    /// manifest of another version is refused before anything is touched.
    pub fn open(dir: &Path) -> io::Result<(DurableLog, Recovered)> {
        fs::create_dir_all(dir)?;
        let manifest_path = dir.join("MANIFEST");
        let (manifest, recovering) = match fs::read(&manifest_path) {
            Ok(bytes) => {
                let m: Manifest = serde_json::from_slice(&bytes)
                    .map_err(|e| corrupt(format!("manifest: {e}")))?;
                if m.version != MANIFEST_VERSION {
                    return Err(corrupt(format!(
                        "manifest version {} is not supported: this build opens version \
                         {MANIFEST_VERSION} only",
                        m.version
                    )));
                }
                (m, true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Manifest::fresh(), false),
            Err(e) => return Err(e),
        };

        let mut recovered = Recovered {
            epoch_hwm: manifest.epoch_hwm,
            retire_hwm: manifest.retire_hwm,
            fresh: !recovering,
            ..Recovered::default()
        };

        // Segments named by the manifest are committed data: failure to
        // read one is an error, never silent loss.
        for meta in &manifest.segments {
            let mut reader = SegmentReader::open(&dir.join(seg_name(meta.id)))?;
            let records = reader.read_all()?;
            if records.len() as u32 != meta.count {
                return Err(corrupt(format!(
                    "segment {} count mismatch: manifest {} file {}",
                    meta.id,
                    meta.count,
                    records.len()
                )));
            }
            recovered.recovered_records += records.len() as u64;
            recovered.segments.push((meta.clone(), records));
        }

        // Replay every WAL from `wal_seq` on. A torn or corrupt frame ends
        // its own file, which is truncated there.
        let seqs = if recovering {
            wal_seqs(dir, manifest.wal_seq, u64::MAX)?
        } else {
            Vec::new()
        };
        let (mut live_seq, mut wal_bytes, mut wal_entries) = (manifest.wal_seq, 0, 0);
        for seq in seqs {
            let path = dir.join(wal_name(seq));
            let mut reader = LogReader::open(&path)?;
            let mut ops = Vec::new();
            while let Some(op) = reader.next_op()? {
                match &op {
                    WalOp::Append {
                        epoch_after,
                        records,
                        ..
                    } => {
                        recovered.max_epoch = recovered.max_epoch.max(*epoch_after);
                        recovered.recovered_records += records.len() as u64;
                    }
                    WalOp::Retire {
                        horizon,
                        epoch_after,
                    } => {
                        recovered.max_epoch = recovered.max_epoch.max(*epoch_after);
                        recovered.retire_hwm = recovered.retire_hwm.max(horizon.as_micros());
                    }
                }
                ops.push(op);
            }
            match reader.stop {
                Some(FrameError::Torn) => recovered.truncated_entries += 1,
                Some(FrameError::Corrupt(_)) => recovered.corrupt_entries += 1,
                None => {}
            }
            if reader.stop.is_some() {
                // Drop the torn/corrupt rest; those frames were never acked.
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(reader.valid_end)?;
            }
            (live_seq, wal_bytes, wal_entries) = (seq, reader.valid_end, ops.len() as u64);
            recovered.ops.push(ops);
        }
        // Appends go to the newest WAL the replay read.
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(wal_name(live_seq)))?;

        let boot_id = if recovering {
            manifest.boot_id + 1
        } else {
            manifest.boot_id
        };
        let reg = pingmesh_obs::registry();
        if recovering {
            reg.counter("pingmesh_store_recoveries_total").inc();
            reg.counter("pingmesh_store_recovered_records_total")
                .add(recovered.recovered_records);
        }
        if recovered.truncated_entries > 0 {
            reg.counter("pingmesh_store_wal_truncated_total")
                .add(recovered.truncated_entries);
        }
        if recovered.corrupt_entries > 0 {
            reg.counter("pingmesh_store_wal_corrupt_entries_total")
                .add(recovered.corrupt_entries);
        }

        let log = DurableLog {
            dir: dir.to_path_buf(),
            wal,
            live_seq,
            wal_seq: manifest.wal_seq,
            wal_bytes,
            wal_entries,
            next_seg: manifest.next_seg,
            boot_id,
            retire_hwm: recovered.retire_hwm,
            live_segments: manifest.segments.len() as u64,
            tombstones: Vec::new(),
            synced: wal_bytes,
            last_sync: Instant::now(),
            frozen: Vec::new(),
            dir_synced_seq: live_seq,
            failed: false,
            io_fault_budget: 0,
            io_errors: 0,
            io_retries: 0,
            checkpoints: 0,
            truncated_entries: recovered.truncated_entries,
            corrupt_entries: recovered.corrupt_entries,
            recovered_records: recovered.recovered_records,
            backoff_seed: boot_id ^ 0x5EED,
        };
        if !recovering {
            // Commit the empty initial state, so the directory is always
            // recoverable from the manifest onward.
            let tmp = dir.join(manifest_tmp_name(log.wal_seq));
            write_manifest(&tmp, &manifest)?;
            fs::rename(&tmp, manifest_path)?;
            sync_dir(dir);
        }
        Ok((log, recovered))
    }

    /// The directory this log persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Recovery generation of this open (0 = first boot).
    pub fn boot_id(&self) -> u64 {
        self.boot_id
    }

    /// Injects `n` artificial IO errors into upcoming WAL writes — the
    /// chaos hook behind the fail-closed tests and drill.
    pub fn inject_io_errors(&mut self, n: u32) {
        self.io_fault_budget = n;
    }

    /// Records the newest retention horizon (mirrored into the manifest
    /// at the next checkpoint).
    pub fn note_retire_hwm(&mut self, horizon: SimTime) {
        self.retire_hwm = self.retire_hwm.max(horizon.as_micros());
    }

    /// Marks a persisted segment dead; its file is unlinked after the
    /// first commit whose manifest no longer names it (tombstone GC).
    pub fn tombstone(&mut self, seg_id: u64) {
        self.tombstones.push(seg_id);
        self.live_segments = self.live_segments.saturating_sub(1);
    }

    /// Acknowledged WAL bytes not yet synced, in the live file and in the
    /// frozen ones.
    pub(crate) fn unsynced_bytes(&self) -> u64 {
        self.wal_bytes - self.synced + self.frozen.iter().map(|f| f.unsynced).sum::<u64>()
    }

    /// Age of the oldest frame still only in the OS page cache, in the
    /// live WAL or a frozen one; 0 when everything is synced. The clock
    /// starts at the first unsynced append after a sync, so an idle gap
    /// between sync and the next append never counts as lag.
    pub fn flush_lag_us(&self) -> u64 {
        let live = (self.wal_bytes > self.synced).then_some(self.last_sync);
        live.into_iter()
            .chain(self.frozen.iter().map(|f| f.since))
            .min()
            .map_or(0, |since| since.elapsed().as_micros() as u64)
    }

    /// Point-in-time durability stats (see [`DurabilityStats`]).
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            boot_id: self.boot_id,
            wal_seq: self.live_seq,
            wal_entries: self.wal_entries,
            wal_bytes: self.wal_bytes,
            unsynced_bytes: self.unsynced_bytes(),
            flush_lag_us: self.flush_lag_us(),
            segments: self.live_segments,
            tombstones: self.tombstones.len() as u64,
            io_errors: self.io_errors,
            io_retries: self.io_retries,
            failed: self.failed,
            checkpoints: self.checkpoints,
            truncated_entries: self.truncated_entries,
            corrupt_entries: self.corrupt_entries,
            recovered_records: self.recovered_records,
        }
    }

    /// Whether background compaction is worth running: the live WAL holds
    /// at least `threshold` bytes. A failed-closed WAL is always due: the
    /// plan's rotation heals it.
    pub fn checkpoint_due(&self, threshold: u64) -> bool {
        self.failed || self.wal_bytes >= threshold
    }

    /// Whether the live WAL holds [`WAL_BACKLOG_CHECKPOINTS`] thresholds:
    /// the checkpoints are not keeping up with the appends.
    pub fn checkpoint_backlogged(&self, threshold: u64) -> bool {
        self.wal_bytes >= WAL_BACKLOG_CHECKPOINTS * threshold
    }

    /// Logs an acknowledged append. Returns `false` — and the caller must
    /// refuse the batch — if the frame could not be made durable after
    /// bounded retries (fail-closed).
    pub fn log_append(
        &mut self,
        dc: DcId,
        records: &[ProbeRecord],
        t: SimTime,
        epoch_after: u64,
    ) -> bool {
        let mut frame = Vec::with_capacity(append_frame_len(records.len()));
        encode_append_frame_into(&mut frame, dc, t, epoch_after, records);
        let ok = self.write_frame(&frame);
        if ok {
            let reg = pingmesh_obs::registry();
            reg.counter("pingmesh_store_wal_appends_total").inc();
            reg.counter("pingmesh_store_wal_records_total")
                .add(records.len() as u64);
        }
        ok
    }

    /// Logs a retention pass. Failure marks the WAL failed-closed but is
    /// safe to ignore for the in-memory retire itself (retires only drop
    /// data; replaying without one can never lose acknowledged records).
    pub fn log_retire(&mut self, horizon: SimTime, epoch_after: u64) -> bool {
        let payload = WalOp::encode_retire(horizon, epoch_after);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let ok = self.write_frame(&frame);
        self.note_retire_hwm(horizon);
        ok
    }

    /// Writes one fully-framed entry (`[len][crc][payload]`) to the WAL.
    fn write_frame(&mut self, frame: &[u8]) -> bool {
        if self.failed {
            return false;
        }
        // Jittered, bounded retries; then fail closed. The offset is
        // rewound before each retry so a partial write can never leave
        // duplicate bytes mid-frame.
        let start = self.wal_bytes;
        let mut backoff = Backoff::new(
            Duration::from_millis(1),
            Duration::from_millis(8),
            self.backoff_seed,
        );
        for attempt in 0..=WAL_WRITE_RETRIES {
            match self.try_write(start, frame, attempt > 0) {
                Ok(()) => {
                    if self.wal_bytes == self.synced {
                        // The lag clock measures the age of the *oldest
                        // unsynced* frame, so it starts when the first
                        // byte lands after a sync — not at the (possibly
                        // long-idle-ago) sync itself.
                        self.last_sync = Instant::now();
                    }
                    self.wal_bytes += frame.len() as u64;
                    self.wal_entries += 1;
                    pingmesh_obs::registry()
                        .counter("pingmesh_store_wal_bytes_total")
                        .add(frame.len() as u64);
                    return true;
                }
                Err(_) => {
                    self.io_errors += 1;
                    pingmesh_obs::registry()
                        .counter("pingmesh_store_io_errors_total")
                        .inc();
                    if attempt < WAL_WRITE_RETRIES {
                        self.io_retries += 1;
                        pingmesh_obs::registry()
                            .counter("pingmesh_store_io_retries_total")
                            .inc();
                        std::thread::sleep(backoff.next_delay());
                    }
                }
            }
        }
        self.failed = true;
        pingmesh_obs::registry()
            .counter("pingmesh_store_wal_failed_closed_total")
            .inc();
        false
    }

    fn try_write(&mut self, start: u64, frame: &[u8], rewind: bool) -> io::Result<()> {
        if self.io_fault_budget > 0 {
            self.io_fault_budget -= 1;
            // Mimic a partial write before the failure, so the rewind
            // path is actually exercised.
            let _ = self.wal.set_len(start + (frame.len() / 2) as u64);
            return Err(io::Error::other("injected wal io error"));
        }
        if rewind {
            // Cut off any partial bytes the failed attempt left behind.
            // Only then: a truncate waits for writeback of the file's last
            // page, which a concurrent group commit may have in flight.
            self.wal.set_len(start)?;
            self.wal.seek(SeekFrom::Start(start))?;
        }
        self.wal.write_all(frame)?;
        Ok(())
    }

    /// The first half of a group commit, under the store lock: cloned
    /// handles to every WAL file holding unsynced acknowledged bytes —
    /// frozen ones a failed checkpoint left unsynced, then the live one —
    /// and the offset a sync of each will cover; `None` when nothing is
    /// unsynced.
    pub(crate) fn begin_sync(&self) -> io::Result<Option<WalSync>> {
        let mut files = Vec::with_capacity(self.frozen.len() + 1);
        for f in &self.frozen {
            files.push((f.file.try_clone()?, f.seq, f.end));
        }
        if self.wal_bytes > self.synced {
            files.push((self.wal.try_clone()?, self.live_seq, self.wal_bytes));
        }
        let new_entry = files.iter().any(|f| f.1 > self.dir_synced_seq);
        Ok((!files.is_empty()).then(|| WalSync {
            files,
            dir: new_entry.then(|| self.dir.clone()),
            started: Instant::now(),
        }))
    }

    /// The second half, under the store lock again: clears the bytes the
    /// sync covered. A file a plan froze while the sync ran is cleared
    /// only if the sync reached the end of its acknowledged bytes. Bytes
    /// appended while it ran stay unsynced, their lag clock starting when
    /// the sync did.
    pub(crate) fn finish_sync(&mut self, sync: &WalSync) {
        let covered = |seq: u64| sync.files.iter().find(|f| f.1 == seq).map(|f| f.2);
        self.frozen
            .retain(|f| covered(f.seq).is_none_or(|upto| upto < f.end));
        if let Some(upto) = covered(self.live_seq).filter(|&upto| upto > self.synced) {
            self.synced = upto;
            self.last_sync = sync.started;
        }
        if sync.dir.is_some() {
            let newest = sync.files.iter().map(|f| f.1).max().unwrap_or(0);
            self.dir_synced_seq = self.dir_synced_seq.max(newest);
        }
    }

    /// Forces the live WAL to stable storage (fdatasync) inline, zeroing
    /// the flush lag.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(sync) = self.begin_sync()? {
            sync.run()?;
            self.finish_sync(&sync);
        }
        Ok(())
    }

    /// Phase 1 of a checkpoint, under the store lock, first half: rotates
    /// the live WAL to `wal-<n+1>`, freezing every older file and healing
    /// a failed-closed WAL. The only IO is creating the new file; once it
    /// succeeds the store seals its open extents, because recovery seals
    /// them at this file boundary too.
    pub(crate) fn rotate_wal(&mut self) -> io::Result<()> {
        let new_seq = self.live_seq + 1;
        let wal = create_file(&self.dir.join(wal_name(new_seq)))?;
        let old = std::mem::replace(&mut self.wal, wal);
        if self.wal_bytes > self.synced {
            // Its acknowledged bytes stay unsynced, and keep their lag
            // clock, until a sync covers the frozen file.
            self.frozen.push(FrozenWal {
                seq: self.live_seq,
                file: old,
                end: self.wal_bytes,
                unsynced: self.wal_bytes - self.synced,
                since: self.last_sync,
            });
        }
        self.live_seq = new_seq;
        self.wal_bytes = 0;
        self.synced = 0;
        self.wal_entries = 0;
        self.failed = false;
        Ok(())
    }

    /// Phase 1, second half, after [`Self::rotate_wal`]: reserves ids for
    /// the `fresh` extents and fixes the manifest the checkpoint will
    /// commit, with the rotated-to WAL as its `wal_seq`. `keep` are the
    /// persisted segments still alive. O(extents), no IO.
    pub(crate) fn plan_checkpoint(
        &mut self,
        keep: Vec<SegmentMeta>,
        fresh: Vec<FreshExtent>,
        epoch: u64,
    ) -> CheckpointPlan {
        let mut segments = keep;
        let fresh: Vec<_> = fresh
            .into_iter()
            .map(|(extent, mut meta, records)| {
                meta.id = self.next_seg;
                self.next_seg += 1;
                segments.push(meta.clone());
                (extent, meta, records)
            })
            .collect();
        // Keep manifest order deterministic: stream-major, extent order.
        segments.sort_by_key(|m| (m.dc, m.id));
        CheckpointPlan {
            dir: self.dir.clone(),
            boot_id: self.boot_id,
            base_seq: self.wal_seq,
            new_seq: self.live_seq,
            fresh,
            manifest: Manifest {
                version: MANIFEST_VERSION,
                boot_id: self.boot_id,
                epoch_hwm: epoch,
                retire_hwm: self.retire_hwm,
                wal_seq: self.live_seq,
                next_seg: self.next_seg,
                segments,
            },
        }
    }

    /// Phase 3 of a checkpoint, under the store lock. A plan gone stale —
    /// another boot, another commit since it was taken, or a newer plan
    /// that rotated past it — is refused and its files become the
    /// garbage. Otherwise the manifest is renamed into place — the commit
    /// point, and cheap: the write phase pinned the replaced manifest, so
    /// the rename frees no blocks.
    pub(crate) fn commit_checkpoint(
        &mut self,
        written: WrittenCheckpoint,
    ) -> io::Result<(CheckpointGc, Vec<Assigned>)> {
        let same_boot = written.boot_id == self.boot_id;
        if same_boot {
            // The write synced every WAL file below the one it rotated
            // to, and then the directory holding that one.
            self.frozen.retain(|f| f.seq >= written.new_seq);
            self.dir_synced_seq = self.dir_synced_seq.max(written.new_seq);
        }
        if !same_boot || written.base_seq != self.wal_seq || written.new_seq != self.live_seq {
            return Ok((written.refused(same_boot), Vec::new()));
        }
        fs::rename(
            self.dir.join(manifest_tmp_name(written.new_seq)),
            self.dir.join("MANIFEST"),
        )?;
        self.wal_seq = written.new_seq;
        self.checkpoints += 1;
        pingmesh_obs::registry()
            .counter("pingmesh_store_checkpoints_total")
            .inc();
        // Segments retired while the files were written are still named
        // by this manifest (their Retire frame replays after it); they
        // stay tombstoned until the next commit drops them.
        self.tombstones.retain(|id| written.live.contains(id));
        self.live_segments = written.live.len().saturating_sub(self.tombstones.len()) as u64;
        let WrittenCheckpoint {
            dir,
            assigned,
            live,
            seg_end,
            ..
        } = written;
        let gc = CheckpointGc {
            dir,
            garbage: Garbage::Superseded {
                wal_seq: self.wal_seq,
                seg_end,
                live,
            },
        };
        Ok((gc, assigned))
    }

    /// Chaos hook: appends a deliberately torn frame (the real frame's
    /// header + the first half of its payload) to the WAL, modelling a
    /// crash mid-write. The frame is *not* acknowledged; recovery must
    /// truncate it and lose nothing that was acked.
    pub fn write_torn_entry(&mut self, dc: DcId, records: &[ProbeRecord]) -> io::Result<()> {
        let mut frame = Vec::new();
        // Never recovered, so the time and epoch values are irrelevant.
        encode_append_frame_into(&mut frame, dc, SimTime(0), u64::MAX, records);
        let cut = FRAME_HEADER + (frame.len() - FRAME_HEADER) / 2;
        self.wal.write_all(&frame[..cut])
    }
}

fn seg_name(id: u64) -> String {
    format!("seg-{id}.dat")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq}.log")
}

fn manifest_tmp_name(seq: u64) -> String {
    format!("MANIFEST-{seq}.tmp")
}

/// A second link to the manifest checkpoint `seq` replaces.
fn manifest_pin_name(seq: u64) -> String {
    format!("MANIFEST-{seq}.old")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn parse_seg_name(name: &str) -> Option<u64> {
    parse_numbered(name, "seg-", ".dat")
}

fn parse_wal_name(name: &str) -> Option<u64> {
    parse_numbered(name, "wal-", ".log")
}

fn parse_manifest_tmp_name(name: &str) -> Option<u64> {
    parse_numbered(name, "MANIFEST-", ".tmp")
}

fn parse_manifest_pin_name(name: &str) -> Option<u64> {
    parse_numbered(name, "MANIFEST-", ".old")
}

fn create_file(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)
}

/// Writes and fsyncs a manifest under a temporary name; the commit
/// renames it into place.
fn write_manifest(path: &Path, manifest: &Manifest) -> io::Result<()> {
    let bytes = serde_json::to_vec(manifest).map_err(io::Error::other)?;
    let mut f = create_file(path)?;
    f.write_all(&bytes)?;
    f.sync_all()
}

/// Makes the directory's entries durable (best-effort — not every
/// filesystem supports fsync on a directory).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

// ---------------------------------------------------------------------------
// Test/temp-dir helpers (shared by dsa, realmode, check, bench tests)
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique, not-yet-existing directory path under the system
/// temp dir — the no-crates.io stand-in for `tempfile`.
pub fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pingmesh-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Removes a directory tree on drop — best-effort cleanup for durable
/// store tests and the durable-by-default collector.
#[derive(Debug)]
pub struct DirGuard(PathBuf);

impl DirGuard {
    /// Guards `path`, removing it recursively when dropped.
    pub fn new(path: PathBuf) -> Self {
        DirGuard(path)
    }
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts: SimTime(ts),
            src: ServerId(7),
            dst: ServerId(9),
            src_pod: PodId(1),
            dst_pod: PodId(2),
            src_podset: PodsetId(3),
            dst_podset: PodsetId(4),
            src_dc: DcId(0),
            dst_dc: DcId(5),
            kind: ProbeKind::TcpPayload(800),
            qos: QosClass::Low,
            src_port: 41_234,
            dst_port: 8_100,
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(412),
            },
        }
    }

    #[test]
    fn record_codec_roundtrips_every_variant() {
        let mut variants = vec![rec(123_456)];
        let mut r = rec(u64::MAX);
        r.kind = ProbeKind::TcpSyn;
        r.outcome = ProbeOutcome::Timeout;
        variants.push(r);
        let mut r = rec(0);
        r.kind = ProbeKind::Http;
        r.qos = QosClass::High;
        r.outcome = ProbeOutcome::Refused;
        variants.push(r);
        for v in variants {
            let mut buf = [0u8; RECORD_WIRE];
            encode_record(&v, &mut buf);
            assert_eq!(decode_record(&buf).unwrap(), v);
            assert_eq!(RECORD_WIRE, v.wire_size(), "codec width == wire_size");
        }
    }

    #[test]
    fn wal_op_roundtrips() {
        let ops = [
            WalOp::Append {
                dc: DcId(3),
                t: SimTime(99),
                epoch_after: 17,
                records: (0..5).map(|i| rec(i * 1000)).collect(),
            },
            WalOp::Append {
                dc: DcId(0),
                t: SimTime(0),
                epoch_after: 0,
                records: Vec::new(),
            },
            WalOp::Retire {
                horizon: SimTime(600_000_000),
                epoch_after: 23,
            },
        ];
        for op in &ops {
            let payload = match op {
                WalOp::Append {
                    dc,
                    t,
                    epoch_after,
                    records,
                } => {
                    let mut frame = Vec::new();
                    encode_append_frame_into(&mut frame, *dc, *t, *epoch_after, records);
                    frame.split_off(FRAME_HEADER)
                }
                WalOp::Retire {
                    horizon,
                    epoch_after,
                } => WalOp::encode_retire(*horizon, *epoch_after),
            };
            assert_eq!(&WalOp::decode(&payload).unwrap(), op);
        }
    }

    #[test]
    fn upload_frame_is_the_wal_append_frame() {
        let records: Vec<ProbeRecord> = [5u64, 9, 2].iter().map(|&ts| rec(ts)).collect();
        let mut body = Vec::with_capacity(append_frame_len(records.len()));
        encode_upload_frame_into(&mut body, &records);
        assert_eq!(body.len(), append_frame_len(3));
        assert_eq!(decode_upload_frame(&body).unwrap(), records);

        // Byte for byte what the store logs for this batch at epoch 0,
        // stamped with the newest `ts`. A retire frame the WAL holds is
        // well formed but is not an upload.
        let dir = unique_dir("upload-frame");
        let _guard = DirGuard::new(dir.clone());
        let (mut log, _) = DurableLog::open(&dir).unwrap();
        assert!(log.log_append(DcId(0), &records, SimTime(9), 0));
        assert!(log.log_retire(SimTime(1), 1));
        let wal = fs::read(dir.join(wal_name(0))).unwrap();
        let (append, retire) = wal.split_at(body.len());
        assert_eq!(append, &body[..]);
        assert_eq!(
            decode_upload_frame(retire),
            Err(FrameError::Corrupt("not an append frame"))
        );
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(matches!(
            decode_upload_frame(&trailing),
            Err(FrameError::Corrupt(_))
        ));
        assert_eq!(
            decode_upload_frame(&body[..body.len() - 1]),
            Err(FrameError::Torn)
        );
        let mut empty = Vec::new();
        encode_upload_frame_into(&mut empty, &[]);
        assert_eq!(decode_upload_frame(&empty).unwrap(), Vec::new());
    }

    #[test]
    fn segment_roundtrip_and_window_reads() {
        let dir = unique_dir("seg");
        let _guard = DirGuard::new(dir.clone());
        fs::create_dir_all(&dir).unwrap();
        // Past one write piece, so the checksum folds across pieces.
        let n = 2 * WRITE_PIECE / RECORD_WIRE + 7;
        let records: Vec<ProbeRecord> = (0..n as u64).map(|i| rec(i * 1_000_000)).collect();
        let meta = SegmentMeta {
            id: 0,
            dc: 0,
            count: records.len() as u32,
            sorted: true,
            min_ts: 0,
            max_ts: (n as u64 - 1) * 1_000_000,
        };
        let path = dir.join(seg_name(0));
        write_segment(&path, &meta, &records).unwrap();
        let mut reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.count() as usize, n);
        assert!(reader.sorted());
        assert_eq!(reader.read_all().unwrap(), records);
        // Sorted window trim on disk: exact half-open bounds.
        let win = reader
            .read_window(SimTime(10_000_000), SimTime(20_000_000))
            .unwrap();
        assert_eq!(win, records[10..20].to_vec());
        assert!(reader
            .read_window(SimTime(u64::MAX - 1), SimTime(u64::MAX))
            .unwrap()
            .is_empty());
        // Unsorted fallback filters the full read.
        let shuffled: Vec<ProbeRecord> = [5u64, 1, 9, 3]
            .iter()
            .map(|&i| rec(i * 1_000_000))
            .collect();
        let meta2 = SegmentMeta {
            id: 1,
            dc: 0,
            count: 4,
            sorted: false,
            min_ts: 1_000_000,
            max_ts: 9_000_000,
        };
        let path2 = dir.join(seg_name(1));
        write_segment(&path2, &meta2, &shuffled).unwrap();
        let mut r2 = SegmentReader::open(&path2).unwrap();
        let win = r2
            .read_window(SimTime(2_000_000), SimTime(6_000_000))
            .unwrap();
        assert_eq!(
            win.iter().map(|r| r.ts.as_micros()).collect::<Vec<_>>(),
            vec![5_000_000, 3_000_000]
        );
    }

    #[test]
    fn segment_checksum_detects_corruption() {
        let dir = unique_dir("segcrc");
        let _guard = DirGuard::new(dir.clone());
        fs::create_dir_all(&dir).unwrap();
        let records: Vec<ProbeRecord> = (0..10).map(rec).collect();
        let meta = SegmentMeta {
            id: 0,
            dc: 0,
            count: 10,
            sorted: true,
            min_ts: 0,
            max_ts: 9,
        };
        let path = dir.join(seg_name(0));
        write_segment(&path, &meta, &records).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[SEG_HEADER + 17] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut reader = SegmentReader::open(&path).unwrap();
        assert!(reader.read_all().is_err(), "flipped byte must fail the crc");
    }

    #[test]
    fn fresh_dir_commits_an_initial_manifest() {
        let dir = unique_dir("fresh");
        let _guard = DirGuard::new(dir.clone());
        let (log, recovered) = DurableLog::open(&dir).unwrap();
        assert_eq!(log.boot_id(), 0);
        assert!(recovered.ops.is_empty());
        assert!(recovered.segments.is_empty());
        assert!(dir.join("MANIFEST").exists());
        assert!(dir.join(wal_name(0)).exists());
    }

    #[test]
    fn torn_tail_is_truncated_and_acked_frames_survive() {
        let dir = unique_dir("torn");
        let _guard = DirGuard::new(dir.clone());
        let batch: Vec<ProbeRecord> = (0..8).map(rec).collect();
        {
            let (mut log, _) = DurableLog::open(&dir).unwrap();
            assert!(log.log_append(DcId(0), &batch, SimTime(1), 1));
            log.write_torn_entry(DcId(0), &batch).unwrap();
        }
        let (log, recovered) = DurableLog::open(&dir).unwrap();
        assert_eq!(log.boot_id(), 1, "recovery bumps the boot id");
        assert_eq!(recovered.truncated_entries, 1);
        assert_eq!(recovered.corrupt_entries, 0);
        let ops = recovered.ops.concat();
        assert_eq!(ops.len(), 1, "only the acked frame replays");
        match &ops[0] {
            WalOp::Append { records, .. } => assert_eq!(records, &batch),
            other => panic!("unexpected op {other:?}"),
        }
        // The truncation is physical: reopening again sees a clean tail.
        drop(log);
        let (_, again) = DurableLog::open(&dir).unwrap();
        assert_eq!(again.truncated_entries, 0);
        assert_eq!(again.ops.concat().len(), 1);
    }

    #[test]
    fn corrupt_checksum_mid_file_truncates_from_there() {
        let dir = unique_dir("crc");
        let _guard = DirGuard::new(dir.clone());
        {
            let (mut log, _) = DurableLog::open(&dir).unwrap();
            for i in 0..3u64 {
                assert!(log.log_append(DcId(0), &[rec(i)], SimTime(i), i + 1));
            }
        }
        // Flip one payload byte inside the *second* frame.
        let wal_path = dir.join(wal_name(0));
        let mut bytes = fs::read(&wal_path).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + FRAME_HEADER;
        bytes[first_len + FRAME_HEADER + 3] ^= 0x55;
        fs::write(&wal_path, &bytes).unwrap();
        let (_, recovered) = DurableLog::open(&dir).unwrap();
        assert_eq!(recovered.corrupt_entries, 1);
        assert_eq!(
            recovered.ops.concat().len(),
            1,
            "frames after the corrupt one are unrecoverable and dropped"
        );
    }

    #[test]
    fn io_errors_retry_then_fail_closed() {
        let dir = unique_dir("iofail");
        let _guard = DirGuard::new(dir.clone());
        let (mut log, _) = DurableLog::open(&dir).unwrap();
        // Two injected faults < retry budget: the append still lands.
        log.inject_io_errors(2);
        assert!(log.log_append(DcId(0), &[rec(1)], SimTime(1), 1));
        assert_eq!(log.stats().io_errors, 2);
        assert!(log.stats().io_retries >= 2);
        assert!(!log.stats().failed);
        // A fault burst beyond the budget fails closed...
        log.inject_io_errors(WAL_WRITE_RETRIES + 10);
        assert!(!log.log_append(DcId(0), &[rec(2)], SimTime(2), 2));
        assert!(log.stats().failed);
        // ...and stays closed without consuming more injected faults.
        assert!(!log.log_append(DcId(0), &[rec(3)], SimTime(3), 3));
        // Recovery sees exactly the one acked frame; the failed frames
        // never reached an acknowledged state.
        drop(log);
        let (_, recovered) = DurableLog::open(&dir).unwrap();
        assert_eq!(recovered.ops.concat().len(), 1);
    }

    #[test]
    fn a_sync_clears_a_file_frozen_while_it_ran_only_if_it_covered_it() {
        let dir = unique_dir("sync-frozen");
        let _guard = DirGuard::new(dir.clone());
        let (mut log, _) = DurableLog::open(&dir).unwrap();

        // Covered: nothing landed between the sync's start and the rotation.
        assert!(log.log_append(DcId(0), &[rec(1)], SimTime(1), 1));
        let sync = log.begin_sync().unwrap().unwrap();
        log.rotate_wal().unwrap();
        sync.run().unwrap();
        log.finish_sync(&sync);
        assert_eq!(log.stats().unsynced_bytes, 0);

        // Not covered: an append landed after the sync started, so the
        // frozen file stays unsynced, with its lag, until a sync covers it.
        assert!(log.log_append(DcId(0), &[rec(2)], SimTime(2), 2));
        let sync = log.begin_sync().unwrap().unwrap();
        assert!(log.log_append(DcId(0), &[rec(3)], SimTime(3), 3));
        log.rotate_wal().unwrap();
        assert!(log.log_append(DcId(0), &[rec(4)], SimTime(4), 4));
        sync.run().unwrap();
        log.finish_sync(&sync);
        assert_eq!(
            log.stats().unsynced_bytes,
            3 * append_frame_len(1) as u64,
            "the frozen file's two frames, counted until it is synced whole, and the live one's"
        );
        assert!(log.flush_lag_us() > 0);
        log.sync().unwrap();
        assert_eq!((log.stats().unsynced_bytes, log.flush_lag_us()), (0, 0));
    }

    #[test]
    fn flush_lag_tracks_unsynced_bytes() {
        let dir = unique_dir("lag");
        let _guard = DirGuard::new(dir.clone());
        let (mut log, _) = DurableLog::open(&dir).unwrap();
        assert_eq!(log.flush_lag_us(), 0, "nothing unsynced at open");
        assert!(log.log_append(DcId(0), &[rec(1)], SimTime(1), 1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(log.flush_lag_us() > 0, "unsynced append ages the lag");
        log.sync().unwrap();
        assert_eq!(log.flush_lag_us(), 0, "sync zeroes the lag");

        // An idle gap after a sync is not lag: the clock restarts at the
        // next append, measuring the oldest *unsynced* frame, not the
        // time since the last fsync.
        std::thread::sleep(Duration::from_millis(20));
        assert!(log.log_append(DcId(0), &[rec(2)], SimTime(2), 2));
        assert!(
            log.flush_lag_us() < 15_000,
            "idle time before the append must not count as lag, got {}us",
            log.flush_lag_us()
        );
    }
}
