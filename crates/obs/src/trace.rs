//! Provenance tracing: a sampled probe's path through the pipeline.
//!
//! A **trace** follows one pinglist entry from generation all the way to
//! the SLA row that makes it visible, emitting one span event per stage:
//!
//! ```text
//! generate → probe → upload → append → partial → tick → sla
//! ```
//!
//! Sampling is seeded-deterministic: an entry is traced iff its
//! content-derived id (`fnv1a(src, dst, port, kind, qos)`) is divisible
//! by the sampling modulus (default 1/1024, see [`set_sample_mod`]).
//! Identity is derived from content rather than carried in the record, so
//! no wire or storage schema changes — any stage can recompute the key
//! from the fields it already has.
//!
//! Each stage records its duration into
//! `pingmesh_stage_duration_us{stage=...}`; trace completion records the
//! probe→sla delta into `pingmesh_trace_end_to_end_us`. Durations use
//! sim-time deltas when both endpoints carry a [`SimTime`] stamp and
//! wall-clock deltas otherwise (realmode agents stamp records against
//! per-process epochs, so cross-host sim deltas would be meaningless
//! there).
//!
//! Overhead discipline: every `on_*` hook opens with one relaxed atomic
//! load of a stage gate (armed / riding / pending counts). While nothing
//! is being traced — notably the whole unsampled hot path — the hooks
//! cost that single load and never allocate (pinned by the
//! counting-allocator test `tests/hot_path_allocs.rs`).

use crate::{record_event, Field, Level};
use parking_lot::Mutex;
use pingmesh_types::{PingTarget, Pinglist, ProbeKind, ProbeRecord, QosClass, ServerId, SimTime};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The pipeline stages a trace passes through, in order.
pub const STAGES: [&str; 7] = [
    "generate", "probe", "upload", "append", "partial", "tick", "sla",
];

/// Default sampling modulus: one entry in 1024 is traced.
pub const DEFAULT_SAMPLE_MOD: u64 = 1024;

/// At most this many entries are armed at once; later arms are dropped
/// (counted in `pingmesh_trace_overflow_total`).
const MAX_ARMED: usize = 1024;

/// Pending (post-append) contexts beyond this are pruned oldest-first.
const MAX_PENDING: usize = 4096;

static SAMPLE_MOD: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_MOD);

/// Sets the sampling modulus: an entry is traced iff
/// `entry_trace_id % m == 0`. Clamped to at least 1 (1 = trace everything).
pub fn set_sample_mod(m: u64) {
    SAMPLE_MOD.store(m.max(1), Ordering::Relaxed);
}

/// The current sampling modulus.
pub fn sample_mod() -> u64 {
    SAMPLE_MOD.load(Ordering::Relaxed)
}

/// 64-bit FNV-1a over a word stream, finished with an avalanche mix.
/// Raw FNV-1a's low bits cluster badly on short structured inputs (on a
/// small mesh no entry id is divisible by 4), which silently defeats the
/// `id % sample_mod` gate for power-of-two moduli like the default 1024.
/// The xor-shift/multiply finalizer spreads every input bit across the
/// low bits, and ids stay deterministic across runs and stages.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn kind_words(kind: ProbeKind) -> u64 {
    match kind {
        ProbeKind::TcpSyn => 1 << 32,
        ProbeKind::TcpPayload(n) => (2 << 32) | n as u64,
        ProbeKind::Http => 3 << 32,
    }
}

fn qos_word(qos: QosClass) -> u64 {
    match qos {
        QosClass::High => 1,
        QosClass::Low => 2,
    }
}

/// The content-derived trace id of one pinglist entry. Every stage can
/// recompute this from fields it already carries.
fn entry_trace_id(src: ServerId, dst: ServerId, port: u16, kind: ProbeKind, qos: QosClass) -> u64 {
    fnv1a(&[
        src.0 as u64,
        dst.0 as u64,
        port as u64,
        kind_words(kind),
        qos_word(qos),
    ])
}

/// Key identifying one concrete probe record while it rides the pipeline.
fn record_key(rec: &ProbeRecord) -> u64 {
    fnv1a(&[
        rec.src.0 as u64,
        rec.dst.0 as u64,
        rec.src_port as u64,
        rec.ts.as_micros(),
    ])
}

/// An entry armed at pinglist generation, waiting for its first probe.
struct ArmedCtx {
    origin_sim: Option<SimTime>,
    origin_wall: Instant,
}

/// A sampled record in flight between probe and store append.
struct RideCtx {
    trace_id: u64,
    probe_sim: Option<SimTime>,
    probe_wall: Instant,
    last_sim: Option<SimTime>,
    last_wall: Instant,
}

/// A sampled record folded into a window partial, waiting for its tick.
struct PendingCtx {
    trace_id: u64,
    window_start_us: u64,
    probe_sim: Option<SimTime>,
    probe_wall: Instant,
    append_sim: SimTime,
    append_wall: Instant,
    ticked: bool,
}

#[derive(Default)]
struct Table {
    /// trace_id → origin, for entries not yet probed.
    armed: HashMap<u64, ArmedCtx>,
    /// record_key → ride, for records between probe and append.
    riding: HashMap<u64, RideCtx>,
    /// Records folded into partials, waiting on the 10-min tick.
    pending: Vec<PendingCtx>,
}

struct Tracer {
    /// Fast gates: `on_*` hooks bail on one relaxed load when the
    /// corresponding table section is empty.
    armed_n: AtomicUsize,
    riding_n: AtomicUsize,
    pending_n: AtomicUsize,
    table: Mutex<Table>,
}

struct StageMetrics {
    stage: [Arc<crate::Histogram>; 7],
    end_to_end: Arc<crate::Histogram>,
    completed: Arc<crate::Counter>,
    overflow: Arc<crate::Counter>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        armed_n: AtomicUsize::new(0),
        riding_n: AtomicUsize::new(0),
        pending_n: AtomicUsize::new(0),
        table: Mutex::new(Table::default()),
    })
}

fn stage_metrics() -> &'static StageMetrics {
    static METRICS: OnceLock<StageMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = crate::registry();
        StageMetrics {
            stage: STAGES.map(|s| r.histogram_with("pingmesh_stage_duration_us", &[("stage", s)])),
            end_to_end: r.histogram("pingmesh_trace_end_to_end_us"),
            completed: r.counter("pingmesh_trace_completed_total"),
            overflow: r.counter("pingmesh_trace_overflow_total"),
        }
    })
}

/// Emits one stage span event and records its duration histogram.
fn emit_stage(stage_idx: usize, trace_id: u64, duration_us: u64, sim: Option<SimTime>) {
    stage_metrics().stage[stage_idx].record_micros(duration_us);
    record_event(
        Level::Info,
        "obs.trace",
        "trace_span",
        vec![
            ("trace_id", Field::U64(trace_id)),
            ("stage", Field::Str(STAGES[stage_idx].to_string())),
            ("duration_us", Field::U64(duration_us)),
        ],
        sim,
    );
}

/// Sim delta when both stamps exist, wall delta otherwise.
fn delta_us(
    from_sim: Option<SimTime>,
    from_wall: Instant,
    to_sim: Option<SimTime>,
    to_wall: Instant,
) -> u64 {
    match (from_sim, to_sim) {
        (Some(a), Some(b)) => b.as_micros().saturating_sub(a.as_micros()),
        _ => to_wall
            .saturating_duration_since(from_wall)
            .as_micros()
            .min(u64::MAX as u128) as u64,
    }
}

/// Clears all tracer state (tests and drills; not needed in production).
pub fn reset() {
    let t = tracer();
    let mut tab = t.table.lock();
    tab.armed.clear();
    tab.riding.clear();
    tab.pending.clear();
    t.armed_n.store(0, Ordering::Relaxed);
    t.riding_n.store(0, Ordering::Relaxed);
    t.pending_n.store(0, Ordering::Relaxed);
}

/// Number of armed (not yet probed) traced entries. Test/diagnostic aid.
pub fn armed_count() -> usize {
    tracer().armed_n.load(Ordering::Relaxed)
}

/// Arms sampled entries from a fresh generation's pinglists: called by the
/// controller path with every list, in turn. VIP targets are skipped
/// (their resolved backend is unknown until probe time). Pass the
/// generation's sim timestamp when running under the simulator. With
/// observability off, `lists` is not iterated.
pub fn arm_from_pinglists(
    lists: impl IntoIterator<Item = impl Borrow<Pinglist>>,
    sim: Option<SimTime>,
) {
    if !crate::enabled() {
        return;
    }
    let m = sample_mod();
    let t = tracer();
    let now_wall = Instant::now();
    let mut tab = t.table.lock();
    for pl in lists {
        let pl = pl.borrow();
        for entry in &pl.entries {
            let dst = match entry.target {
                PingTarget::Server { id, .. } => id,
                PingTarget::Vip { .. } => continue,
            };
            let id = entry_trace_id(pl.server, dst, entry.port, entry.kind, entry.qos);
            if !id.is_multiple_of(m) {
                continue;
            }
            // One live trace per entry id: skip if already armed or in
            // flight from a previous generation.
            if tab.armed.contains_key(&id)
                || tab.riding.values().any(|r| r.trace_id == id)
                || tab.pending.iter().any(|p| p.trace_id == id)
            {
                continue;
            }
            if tab.armed.len() >= MAX_ARMED {
                stage_metrics().overflow.inc();
                continue;
            }
            tab.armed.insert(
                id,
                ArmedCtx {
                    origin_sim: sim,
                    origin_wall: now_wall,
                },
            );
            emit_stage(0, id, 0, sim);
        }
    }
    t.armed_n.store(tab.armed.len(), Ordering::Relaxed);
}

/// Notes a produced probe record (agent side, right after the record is
/// built). Consumes the armed entry on its first record — one concrete
/// probe rides per traced entry per arming.
#[inline]
pub fn on_probe(rec: &ProbeRecord) {
    let t = tracer();
    if t.armed_n.load(Ordering::Relaxed) == 0 {
        return;
    }
    let id = entry_trace_id(rec.src, rec.dst, rec.dst_port, rec.kind, rec.qos);
    let mut tab = t.table.lock();
    let Some(armed) = tab.armed.remove(&id) else {
        return;
    };
    t.armed_n.store(tab.armed.len(), Ordering::Relaxed);
    let now_wall = Instant::now();
    let sim = armed.origin_sim.map(|_| rec.ts);
    let dur = delta_us(armed.origin_sim, armed.origin_wall, sim, now_wall);
    emit_stage(1, id, dur, sim.or(Some(rec.ts)));
    tab.riding.insert(
        record_key(rec),
        RideCtx {
            trace_id: id,
            probe_sim: sim,
            probe_wall: now_wall,
            last_sim: sim,
            last_wall: now_wall,
        },
    );
    t.riding_n.store(tab.riding.len(), Ordering::Relaxed);
}

/// Notes an upload batch leaving an agent. Pass the agent's sim clock
/// when available. `batch` is iterated only while some trace rides.
pub fn on_upload_batch(
    batch: impl IntoIterator<Item = impl Borrow<ProbeRecord>>,
    sim: Option<SimTime>,
) {
    let t = tracer();
    if t.riding_n.load(Ordering::Relaxed) == 0 {
        return;
    }
    let now_wall = Instant::now();
    let mut tab = t.table.lock();
    for rec in batch {
        let key = record_key(rec.borrow());
        if let Some(ride) = tab.riding.get_mut(&key) {
            let to_sim = ride.last_sim.and(sim);
            let dur = delta_us(ride.last_sim, ride.last_wall, to_sim, now_wall);
            let (id, ev_sim) = (ride.trace_id, to_sim.or(sim));
            ride.last_sim = to_sim.or(ride.last_sim);
            ride.last_wall = now_wall;
            emit_stage(2, id, dur, ev_sim);
        }
    }
}

/// Notes a batch landing in the store at sim-time `t`, folding into the
/// window partial of width `window_us`. Emits both the `append` span
/// (upload → store) and the `partial` span (how deep into its window the
/// record landed) and parks the trace until that window's tick.
pub fn on_append_batch(batch: &[ProbeRecord], at: SimTime, window_us: u64) {
    let tr = tracer();
    if tr.riding_n.load(Ordering::Relaxed) == 0 {
        return;
    }
    let now_wall = Instant::now();
    let window_us = window_us.max(1);
    let mut tab = tr.table.lock();
    for rec in batch {
        let key = record_key(rec);
        let Some(ride) = tab.riding.remove(&key) else {
            continue;
        };
        let to_sim = ride.last_sim.map(|_| at);
        let dur = delta_us(ride.last_sim, ride.last_wall, to_sim, now_wall);
        emit_stage(3, ride.trace_id, dur, Some(at));
        let window_start_us = at.as_micros() / window_us * window_us;
        emit_stage(4, ride.trace_id, at.as_micros() - window_start_us, Some(at));
        if tab.pending.len() >= MAX_PENDING {
            tab.pending.remove(0);
            stage_metrics().overflow.inc();
        }
        tab.pending.push(PendingCtx {
            trace_id: ride.trace_id,
            window_start_us,
            probe_sim: ride.probe_sim,
            probe_wall: ride.probe_wall,
            append_sim: at,
            append_wall: now_wall,
            ticked: false,
        });
    }
    tr.riding_n.store(tab.riding.len(), Ordering::Relaxed);
    tr.pending_n.store(tab.pending.len(), Ordering::Relaxed);
}

/// Notes the 10-minute tick covering `[window_start, window_end)` firing
/// at sim-time `now` (window end + ingest lag). The `tick` span is the
/// wait from store append to the merge that finally reads the record.
pub fn on_tick(window_start: SimTime, window_end: SimTime, now: SimTime) {
    let t = tracer();
    if t.pending_n.load(Ordering::Relaxed) == 0 {
        return;
    }
    let now_wall = Instant::now();
    let mut tab = t.table.lock();
    for p in tab.pending.iter_mut() {
        if p.ticked
            || p.window_start_us < window_start.as_micros()
            || p.window_start_us >= window_end.as_micros()
        {
            continue;
        }
        p.ticked = true;
        let dur = delta_us(Some(p.append_sim), p.append_wall, Some(now), now_wall);
        emit_stage(5, p.trace_id, dur, Some(now));
    }
}

/// Notes the SLA rows for `[window_start, window_end)` having been
/// inserted at sim-time `now`: finalizes every trace the tick marked,
/// emitting the `sla` span (tick compute, wall time) and the
/// probe-to-visible end-to-end histogram. Traces whose window passed
/// without a tick (late records) are pruned here.
pub fn on_sla(window_start: SimTime, window_end: SimTime, now: SimTime) {
    let t = tracer();
    if t.pending_n.load(Ordering::Relaxed) == 0 {
        return;
    }
    let now_wall = Instant::now();
    let m = stage_metrics();
    let mut tab = t.table.lock();
    tab.pending.retain(|p| {
        let in_window = p.window_start_us >= window_start.as_micros()
            && p.window_start_us < window_end.as_micros();
        if in_window && p.ticked {
            // Sim delta is 0 by construction (tick and sla share `now`);
            // the wall delta is the actual tick compute time.
            let dur = now_wall
                .saturating_duration_since(p.append_wall)
                .as_micros()
                .min(u64::MAX as u128) as u64;
            emit_stage(6, p.trace_id, dur, Some(now));
            let e2e = delta_us(
                p.probe_sim,
                p.probe_wall,
                p.probe_sim.map(|_| now),
                now_wall,
            );
            m.end_to_end.record_micros(e2e);
            m.completed.inc();
            return false;
        }
        // Prune stale windows that will never tick again.
        if p.window_start_us + (window_end.as_micros() - window_start.as_micros())
            <= window_start.as_micros()
        {
            m.overflow.inc();
            return false;
        }
        true
    });
    t.pending_n.store(tab.pending.len(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_types::{DcId, PinglistEntry, PodId, PodsetId, ProbeOutcome, SimDuration};

    fn entry(dst: ServerId) -> PinglistEntry {
        PinglistEntry {
            target: PingTarget::Server {
                id: dst,
                ip: std::net::Ipv4Addr::new(10, 0, 0, 1),
            },
            port: 80,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            interval: SimDuration::from_secs(10),
        }
    }

    fn record(src: ServerId, dst: ServerId, ts: SimTime) -> ProbeRecord {
        ProbeRecord {
            ts,
            src,
            dst,
            src_pod: PodId(0),
            dst_pod: PodId(1),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(0),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 50_000,
            dst_port: 80,
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(400),
            },
        }
    }

    /// The tracer's tables and sampling modulus are process-wide and
    /// `cargo test` runs tests on parallel threads: a test that resets or
    /// resamples the tracer holds this for its whole body.
    static TRACER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct Exclusive {
        _guard: std::sync::MutexGuard<'static, ()>,
        _on: std::sync::MutexGuard<'static, ()>,
    }

    /// Takes the tracer for one test: enabled, empty, sampling at `m`.
    fn exclusive(m: u64) -> Exclusive {
        // Poisoned means an earlier holder failed an assert; its drop
        // below already put the tracer back, so the lock is still good.
        let guard = TRACER.lock().unwrap_or_else(|e| e.into_inner());
        let on = crate::tests::events_on();
        reset();
        set_sample_mod(m);
        Exclusive {
            _guard: guard,
            _on: on,
        }
    }

    impl Drop for Exclusive {
        fn drop(&mut self) {
            set_sample_mod(DEFAULT_SAMPLE_MOD);
            reset();
        }
    }

    #[test]
    fn trace_id_is_deterministic_and_content_derived() {
        let a = entry_trace_id(
            ServerId(1),
            ServerId(2),
            80,
            ProbeKind::TcpSyn,
            QosClass::High,
        );
        let b = entry_trace_id(
            ServerId(1),
            ServerId(2),
            80,
            ProbeKind::TcpSyn,
            QosClass::High,
        );
        assert_eq!(a, b);
        let c = entry_trace_id(
            ServerId(1),
            ServerId(3),
            80,
            ProbeKind::TcpSyn,
            QosClass::High,
        );
        assert_ne!(a, c);
        assert_ne!(
            entry_trace_id(
                ServerId(1),
                ServerId(2),
                80,
                ProbeKind::TcpPayload(800),
                QosClass::High
            ),
            a
        );
    }

    #[test]
    fn full_lifecycle_emits_every_stage_under_one_id() {
        let _tracer = exclusive(1);
        let before = crate::events().last_seq();

        let src = ServerId(41);
        let dst = ServerId(42);
        let lists = vec![Pinglist {
            server: src,
            generation: 1,
            entries: vec![entry(dst)],
        }];
        arm_from_pinglists(&lists, Some(SimTime(0)));
        assert_eq!(armed_count(), 1);

        let rec = record(src, dst, SimTime(5_000_000));
        on_probe(&rec);
        assert_eq!(armed_count(), 0);
        on_upload_batch([rec], Some(SimTime(6_000_000)));
        let window_us = SimDuration::from_mins(10).as_micros();
        on_append_batch(&[rec], SimTime(7_000_000), window_us);
        on_tick(SimTime(0), SimTime(window_us), SimTime(window_us * 2));
        on_sla(SimTime(0), SimTime(window_us), SimTime(window_us * 2));

        let id = entry_trace_id(src, dst, 80, ProbeKind::TcpSyn, QosClass::High);
        let evs = crate::events().snapshot_since(before);
        let mut seen: Vec<String> = Vec::new();
        for ev in &evs {
            if ev.name != "trace_span" {
                continue;
            }
            let matches_id = ev
                .fields
                .iter()
                .any(|(k, v)| *k == "trace_id" && *v == Field::U64(id));
            if !matches_id {
                continue;
            }
            if let Some((_, Field::Str(s))) = ev.fields.iter().find(|(k, _)| *k == "stage") {
                seen.push(s.clone());
            }
        }
        assert_eq!(seen, STAGES.to_vec(), "all stages in order for one id");
    }

    #[test]
    fn unsampled_records_pass_untouched() {
        // Modulus so large nothing samples (fnv output is "random").
        let _tracer = exclusive(u64::MAX);
        let lists = vec![Pinglist {
            server: ServerId(1),
            generation: 1,
            entries: vec![entry(ServerId(2))],
        }];
        arm_from_pinglists(&lists, Some(SimTime(0)));
        assert_eq!(armed_count(), 0, "nothing sampled");
        on_probe(&record(ServerId(1), ServerId(2), SimTime(1)));
    }

    #[test]
    fn rearming_a_live_trace_is_idempotent() {
        let _tracer = exclusive(1);
        let lists = vec![Pinglist {
            server: ServerId(7),
            generation: 1,
            entries: vec![entry(ServerId(8))],
        }];
        arm_from_pinglists(&lists, Some(SimTime(0)));
        arm_from_pinglists(&lists, Some(SimTime(1)));
        assert_eq!(armed_count(), 1, "re-arm of an armed id is a no-op");
    }
}
