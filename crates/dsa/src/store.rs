//! The append-only record store (Cosmos stand-in).
//!
//! "Files in Cosmos are append-only and a file is split into multiple
//! 'extents' and an extent is stored in multiple servers to provide high
//! reliability" (§2.3). We reproduce the structure that matters to the
//! pipeline: named streams of append-only extents, bounded extent size,
//! and one windowed scan. The store knows nothing about *when* it is
//! reachable — outages belong to whoever drives it (the simulator's
//! timeline, the collector's accept switch) — and `append` refuses a
//! batch only when its own WAL has failed closed.
//!
//! Since the streaming-DSA refactor the store also performs **ingest-time
//! aggregation**: every appended batch is folded into per-(stream,
//! 10-minute-window) partial [`WindowAggregate`]s, so each probe record
//! is aggregated exactly once, at upload time. The 10-minute job reads a
//! finished partial via [`CosmosStore::merged_window_aggregate`]; hourly
//! and daily rollups merge the enclosed partials in O(scopes). Raw records
//! have one read path, [`CosmosStore::try_scan_all_window_chunks`], a
//! [`Scan`] of extent runs (investigations, the coverage job, the state
//! digest and every test's rebuild-from-raw reference use it).
//!
//! An extent holds each record in 32 bytes: timestamp, RTT and ports as
//! they are, both endpoints `(server, pod, podset, dc)` and the probe's
//! shape `(kind, payload, qos, outcome class)` as keys into two
//! append-only tables the store interns them in. Packing is lossless, and
//! a record exists at its full 72 bytes only while a scan expands it: a
//! [`Scan`] expands one extent run at a time, as its reader reaches it.
//! The WAL and the segments keep the 64-byte wire codec; a checkpoint
//! expands its extents against a snapshot of the tables, and recovery
//! interns the records again as it replays them.
//!
//! A durable store keeps on disk what it has already persisted: once an
//! extent has a segment and every window it touches is frozen, a
//! checkpoint's commit evicts its records. Partials, which serve every
//! hot query, stay resident; a raw scan reads an evicted extent back from
//! its segment, and recovery folds the segments one at a time, keeping
//! only the records of windows still filling.

use crate::agg::WindowAggregate;
use crate::durable::{
    CheckpointGc, CheckpointPlan, DurabilityStats, DurableLog, SegmentMeta, WalOp,
    WrittenCheckpoint, RECORD_WIRE,
};
use crate::packed::{Interner, PackedRecord, Tables, PACKED_BYTES};
use pingmesh_topology::ServiceMap;
use pingmesh_types::{DcId, ProbeRecord, SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Live WAL bytes at which the background
/// [`Compactor`](crate::compactor::Compactor) triggers the next checkpoint
/// (every extent written as a segment, replay restarting at the rotated-to
/// WAL). Recovery replays a few of these; at measured replay rates (>1M
/// records/sec) each is a fraction of a second.
pub const WAL_CHECKPOINT_BYTES: u64 = 16 << 20;

/// Width of the ingest-time partial-aggregate windows. This matches the
/// paper's 10-minute near-real-time job cadence; coarser windows (hourly,
/// daily) are unions of these and are produced by merging partials.
pub const PARTIAL_WINDOW: SimDuration = SimDuration::from_mins(10);

/// Name of a record stream. The production pipeline partitions uploads by
/// data center and time window; we key streams by DC (windowing is done
/// at scan time, records are timestamped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamName {
    /// The data center whose agents feed this stream.
    pub dc: DcId,
}

/// One append-only extent. Not `Clone`: an unsealed extent's records
/// must stay unshared for `append_raw`'s `Arc::get_mut`.
#[derive(Debug)]
struct Extent {
    /// Stable id, increasing in append order within a stream; a
    /// checkpoint plan names the extents it persists by it.
    id: u64,
    /// The records while resident, packed against the store's tables.
    /// Shared with a checkpoint plan once sealed (and then never written
    /// again); an unsealed extent is never shared, so appends write
    /// through `Arc::get_mut`. `None` once evicted: sealed, persisted as
    /// segment `seg`, every window frozen.
    records: Option<Arc<Vec<PackedRecord>>>,
    /// Record count, resident or evicted.
    len: usize,
    sealed: bool,
    min_ts: SimTime,
    max_ts: SimTime,
    /// Whether `records` is non-decreasing in `ts` (tracked at append).
    /// Sorted extents admit binary search for window boundaries.
    sorted: bool,
    /// Id of the on-disk segment persisting this extent, once sealed and
    /// checkpointed (`None` for in-memory-only extents).
    seg: Option<u64>,
}

impl Extent {
    fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.len > 0 && self.min_ts < to && self.max_ts >= from
    }

    /// Whether this extent may give up its records: it has a segment to
    /// read them back from, and every window it touches is frozen.
    fn evictable(&self, frozen_before: Option<SimTime>) -> bool {
        self.seg.is_some() && frozen_before.is_some_and(|f| self.max_ts < f)
    }

    /// Its segment's manifest entry; `id` is the segment id, 0 when none.
    fn meta(&self, stream: StreamName) -> SegmentMeta {
        SegmentMeta {
            id: self.seg.unwrap_or(0),
            dc: stream.dc.0,
            count: self.len as u32,
            sorted: self.sorted,
            min_ts: self.min_ts.as_micros(),
            max_ts: self.max_ts.as_micros(),
        }
    }

    /// The resident records of an extent `append_raw` may write to.
    fn open_records(&mut self) -> &mut Vec<PackedRecord> {
        let records = self
            .records
            .as_mut()
            .expect("an unsealed extent is resident");
        Arc::get_mut(records).expect("an unsealed extent is never shared")
    }

    /// The index ranges of `records` (this extent's, packed or read back,
    /// each stamped `ts`) that together hold exactly its records in
    /// `[from, to)`: the whole extent when it lies inside, a binary-search
    /// trim when time-sorted, otherwise its maximal in-window runs.
    fn window_runs<T>(
        &self,
        records: &[T],
        ts: impl Fn(&T) -> SimTime,
        from: SimTime,
        to: SimTime,
        mut push: impl FnMut(Range<usize>),
    ) {
        if self.min_ts >= from && self.max_ts < to {
            push(0..records.len());
        } else if self.sorted {
            let lo = records.partition_point(|r| ts(r) < from);
            let hi = records.partition_point(|r| ts(r) < to);
            if lo < hi {
                push(lo..hi);
            }
        } else {
            let mut start = None;
            for (i, r) in records.iter().enumerate() {
                let inside = ts(r) >= from && ts(r) < to;
                match (inside, start) {
                    (true, None) => start = Some(i),
                    (false, Some(s)) => {
                        push(s..i);
                        start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = start {
                push(s..records.len());
            }
        }
    }
}

/// A raw scan of a window: the extent runs that together hold exactly its
/// records, in store order. A run borrows a resident extent's packed
/// records, or holds an evicted extent's, read back from its segment when
/// the scan was taken and packed against tables of the scan's own. Nothing
/// is expanded until read: [`Scan::iter`] expands one run per chunk it
/// yields and keeps none, [`Scan::records`] one record at a time.
pub struct Scan<'a> {
    /// The store's tables, for resident runs.
    tables: &'a Tables,
    /// Tables of the read-back runs.
    read_back: Interner,
    /// Each read-back extent's in-window records, packed.
    loaded: Vec<Vec<PackedRecord>>,
    runs: Vec<Run<'a>>,
}

enum Run<'a> {
    Resident(&'a [PackedRecord]),
    /// A range of one `loaded` extent.
    Loaded(usize, Range<usize>),
}

impl<'a> Scan<'a> {
    fn new(tables: &'a Tables) -> Self {
        Self {
            tables,
            read_back: Interner::default(),
            loaded: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Number of chunks: each overlapping extent's in-window runs, one for
    /// an extent inside the window or time-sorted.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the window holds no record.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// A run's records and the tables that expand them.
    fn run<'s>(&'s self, run: &'s Run<'a>) -> (&'s Tables, &'s [PackedRecord]) {
        match run {
            Run::Resident(records) => (self.tables, records),
            Run::Loaded(i, range) => (self.read_back.tables(), &self.loaded[*i][range.clone()]),
        }
    }

    /// The chunks in scan order, each one run, expanded when the iterator
    /// reaches it; at most `extent_cap` records, and the scan keeps none.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Vec<ProbeRecord>> + '_ {
        self.runs.iter().map(|run| {
            let (tables, records) = self.run(run);
            tables.expand_all(records)
        })
    }

    /// Every record in scan order, expanded one at a time.
    pub fn records(&self) -> impl Iterator<Item = ProbeRecord> + '_ {
        self.runs.iter().flat_map(|run| {
            let (tables, records) = self.run(run);
            records.iter().map(|p| tables.expand(p))
        })
    }

    /// Reads an evicted extent's in-window records back from its segment
    /// and adds their runs. A time-sorted straddler reads only its
    /// in-window byte range; every other read covers the whole segment and
    /// is checksummed (DESIGN §13 says what each read checks). The extent
    /// is held expanded, beside the reader's piece buffers, only while its
    /// in-window records are packed.
    fn read_back(
        &mut self,
        log: &DurableLog,
        stream: StreamName,
        e: &Extent,
        from: SimTime,
        to: SimTime,
    ) -> io::Result<()> {
        let mut reader = log.open_segment(&e.meta(stream))?;
        let inside = e.min_ts >= from && e.max_ts < to;
        let records = if e.sorted && !inside {
            reader.read_window(from, to)?
        } else {
            reader.read_all()?
        };
        let mut ranges = Vec::new();
        e.window_runs(&records, |r| r.ts, from, to, |r| ranges.push(r));
        let mut packed = Vec::with_capacity(ranges.iter().map(|r| r.len()).sum());
        for r in ranges {
            let start = packed.len();
            packed.extend(records[r].iter().map(|rec| self.read_back.pack(rec)));
            self.runs
                .push(Run::Loaded(self.loaded.len(), start..packed.len()));
        }
        self.loaded.push(packed);
        Ok(())
    }
}

/// Records a refold expands at a time.
const REFOLD_PIECE: usize = 4096;

/// Partial-window readers take 10-min-aligned bounds (job windows are,
/// by construction).
fn debug_assert_aligned(from: SimTime, to: SimTime) {
    let start = |t: SimTime| t.window_start(PARTIAL_WINDOW);
    debug_assert_eq!(start(from), from, "window start must be 10-min aligned");
    debug_assert_eq!(start(to), to, "window end must be 10-min aligned");
}

/// The append path's metrics, resolved once: `append` runs under the
/// store lock.
struct AppendMetrics {
    wal_append_us: Arc<pingmesh_obs::Histogram>,
    fold_us: Arc<pingmesh_obs::Histogram>,
    rejected_batches: Arc<pingmesh_obs::Counter>,
    appended_records: Arc<pingmesh_obs::Counter>,
    folded_records: Arc<pingmesh_obs::Counter>,
    resident_records: Arc<pingmesh_obs::Gauge>,
    resident_bytes: Arc<pingmesh_obs::Gauge>,
}

fn metrics() -> &'static AppendMetrics {
    static M: OnceLock<AppendMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pingmesh_obs::registry();
        AppendMetrics {
            wal_append_us: r.histogram("pingmesh_store_wal_append_us"),
            fold_us: r.histogram("pingmesh_store_fold_us"),
            rejected_batches: r.counter("pingmesh_dsa_store_rejected_batches_total"),
            appended_records: r.counter("pingmesh_dsa_store_appended_records_total"),
            folded_records: r.counter("pingmesh_dsa_ingest_folded_records_total"),
            resident_records: r.gauge("pingmesh_store_resident_records"),
            resident_bytes: r.gauge("pingmesh_store_resident_bytes"),
        }
    })
}

/// Ingest-time partial aggregates, keyed by (stream, window start).
type Partials = BTreeMap<(StreamName, SimTime), WindowAggregate>;

/// One aggregate merged from `parts`, in order.
fn merge_all<'a>(parts: impl Iterator<Item = &'a WindowAggregate>) -> WindowAggregate {
    let mut out = WindowAggregate::default();
    for part in parts {
        out.merge(part);
    }
    out
}

/// The one path from raw records to partials: folds `records` into their
/// (stream, window) partials, one partials lookup per maximal same-window
/// run (agent batches are nearly time-ordered, so about one per batch),
/// and stamps each touched partial with `seq`.
fn fold_window_runs(
    partials: &mut Partials,
    versions: &mut BTreeMap<(StreamName, SimTime), u64>,
    stream: StreamName,
    records: &[ProbeRecord],
    seq: u64,
    services: Option<&ServiceMap>,
) {
    let width = PARTIAL_WINDOW.as_micros();
    let mut rest = records;
    while let Some(first) = rest.first() {
        let ws = first.ts.window_start(PARTIAL_WINDOW);
        // One compare covers both sides: a record before `ws` wraps.
        let outside = |r: &ProbeRecord| r.ts.as_micros().wrapping_sub(ws.as_micros()) >= width;
        let (run, later) = rest.split_at(rest.iter().position(outside).unwrap_or(rest.len()));
        let agg = partials.entry((stream, ws)).or_default();
        agg.fold_records(run, services);
        versions.insert((stream, ws), seq);
        rest = later;
    }
}

/// The store.
#[derive(Debug)]
pub struct CosmosStore {
    extent_cap: usize,
    replication: u32,
    streams: BTreeMap<StreamName, Vec<Extent>>,
    /// The endpoint and shape tables every resident record is packed
    /// against.
    interner: Interner,
    /// Ingest-time partial aggregates, keyed by (stream, window start).
    /// Window starts are aligned to [`PARTIAL_WINDOW`].
    partials: Partials,
    /// Monotone fold sequence: bumped once per mutation that touches
    /// partials (append batch, refold). `partial_versions` records the
    /// fold_seq that last touched each partial, so a query tier can
    /// fingerprint a window range cheaply ([`CosmosStore::window_version`]).
    fold_seq: u64,
    /// fold_seq that last touched each partial, same keying as `partials`.
    partial_versions: BTreeMap<(StreamName, SimTime), u64>,
    /// Bumped whenever the service map changes (late `set_service_map`
    /// refolds *every* partial, silently changing frozen windows — the
    /// generation folds into every window version so caches notice).
    service_generation: u64,
    /// Store mutation epoch, bumped on every mutation (append, refold,
    /// retire). Shared out via [`CosmosStore::epoch_handle`] so read
    /// replicas can validate cache entries with one atomic load instead
    /// of taking the store lock.
    epoch: Arc<AtomicU64>,
    /// Service map used to fold per-service scopes at ingest. Installed
    /// by the pipeline; partials folded before installation are refolded.
    services: Option<Arc<ServiceMap>>,
    total_records: u64,
    total_bytes: u64,
    /// Records held in memory: `total_records` less the evicted ones.
    resident_records: u64,
    /// Id of the next extent created.
    next_extent: u64,
    /// The newest retention horizon: partials of windows closed before it
    /// are gone and stay gone.
    retired_before: SimTime,
    /// Persistence engine; `None` for a purely in-memory store.
    pub(crate) durable: Option<DurableLog>,
    /// Recovery generation: 0 on first boot, +1 per recovery. Folded into
    /// every [`CosmosStore::window_version`] so caches built before a
    /// crash can never falsely revalidate against the recovered store.
    boot_id: u64,
}

impl CosmosStore {
    /// Records per extent of [`CosmosStore::with_defaults`] and of the
    /// collector's stores.
    pub const DEFAULT_EXTENT_CAP: usize = 250_000;
    /// Replication factor that goes with [`Self::DEFAULT_EXTENT_CAP`].
    pub const DEFAULT_REPLICATION: u32 = 3;

    /// Creates a store with the given extent capacity (records per
    /// extent) and replication factor.
    pub fn new(extent_cap: usize, replication: u32) -> Self {
        Self {
            extent_cap: extent_cap.max(1),
            replication: replication.max(1),
            streams: BTreeMap::new(),
            interner: Interner::default(),
            partials: BTreeMap::new(),
            fold_seq: 0,
            partial_versions: BTreeMap::new(),
            service_generation: 0,
            epoch: Arc::new(AtomicU64::new(0)),
            services: None,
            total_records: 0,
            total_bytes: 0,
            resident_records: 0,
            next_extent: 0,
            retired_before: SimTime::ZERO,
            durable: None,
            boot_id: 0,
        }
    }

    /// A store with production-ish defaults.
    pub fn with_defaults() -> Self {
        Self::new(Self::DEFAULT_EXTENT_CAP, Self::DEFAULT_REPLICATION)
    }

    /// Records per extent before sealing (recovery reuses it).
    pub fn extent_cap(&self) -> usize {
        self.extent_cap
    }

    /// Replication factor counted into physical bytes.
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Opens (or recovers) a durable store rooted at `dir`. Every
    /// acknowledged append is written to the WAL before it is applied in
    /// memory; sealed extents are compacted into immutable segment files
    /// at checkpoints. Equivalent to `recover_with(dir, .., None)`.
    pub fn durable(dir: &Path, extent_cap: usize, replication: u32) -> io::Result<Self> {
        Self::recover_with(dir, extent_cap, replication, None)
    }

    /// Opens (or recovers) a durable store, optionally *adopting* an
    /// existing epoch handle so read tiers holding it keep observing the
    /// same atomic across the restart. Recovery:
    ///
    /// 1. takes the manifest's segments as sealed, evicted extents (their
    ///    headers checked, their records still on disk),
    /// 2. replays every WAL file from the manifest's `wal_seq` on, in
    ///    order (appends rebuild extents through the normal
    ///    extent-building path; retires re-drop expired ones), sealing the
    ///    open extents after each file — every file boundary is a plan's
    ///    rotation, where the live store sealed them, so extent boundaries
    ///    come back as they were,
    /// 3. refolds the per-(stream, window) partials from surviving raw
    ///    records — bit-identical to the pre-crash fold because the
    ///    aggregates are order-independent CRDTs — and drops windows
    ///    closed before the persisted retention horizon. Each surviving
    ///    segment is read once, checksummed, and streamed into the fold a
    ///    piece at a time; only a segment with a window still filling keeps
    ///    its records,
    /// 4. raises the epoch above every acknowledged pre-crash value and
    ///    bumps the boot id (salting every window fingerprint), then
    /// 5. commits a fresh checkpoint, retiring the replayed files and
    ///    garbage-collecting orphans from any crashed compaction (a new
    ///    directory skips this: its initial commit already is one).
    pub fn recover_with(
        dir: &Path,
        extent_cap: usize,
        replication: u32,
        adopt_epoch: Option<Arc<AtomicU64>>,
    ) -> io::Result<Self> {
        let (log, recovered) = DurableLog::open(dir)?;
        let fresh = recovered.fresh;
        let mut store = Self::new(extent_cap, replication);
        if let Some(handle) = adopt_epoch {
            store.epoch = handle;
        }
        store.boot_id = log.boot_id();
        store.durable = Some(log);

        // 1. Segments become sealed, evicted extents, in manifest
        // (stream-major, append) order.
        for meta in recovered.segments {
            let stream = StreamName { dc: DcId(meta.dc) };
            let len = meta.count as usize;
            store.total_records += len as u64;
            store.total_bytes += (len * RECORD_WIRE) as u64;
            store.streams.entry(stream).or_default().push(Extent {
                id: store.next_extent,
                records: None,
                len,
                sealed: true,
                min_ts: SimTime(meta.min_ts),
                max_ts: SimTime(meta.max_ts),
                sorted: meta.sorted,
                seg: Some(meta.id),
            });
            store.next_extent += 1;
        }

        // 2. Replay WAL ops in order, raw only (partials come in step 3),
        // sealing where the plan that rotated past each file sealed.
        for ops in recovered.ops {
            for op in ops {
                match op {
                    WalOp::Append { dc, records, .. } => {
                        store.append_raw(StreamName { dc }, &records);
                    }
                    WalOp::Retire { horizon, .. } => {
                        store.retire_extents(horizon);
                    }
                }
            }
            store.seal_open_extents();
        }

        // 3. Partials: refold from surviving raw, leaving out windows the
        // retention horizon already closed, and bring back the records of
        // segments whose windows are still filling.
        store.retired_before = SimTime(recovered.retire_hwm);
        if store.total_records > 0 {
            store.refold_partials(true)?;
        }
        store.publish_residency();

        // 4. The epoch must rise above everything any pre-crash reader
        // (or the adopted handle) could have observed.
        let floor = store
            .epoch
            .load(Ordering::Acquire)
            .max(recovered.epoch_hwm)
            .max(recovered.max_epoch);
        store.epoch.store(floor + 1, Ordering::Release);

        // 5. A fresh commit point: replayed files retired, orphans from
        // crashed compactions removed, boot id saved. (A new directory's
        // initial commit already is one.)
        if !fresh {
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// Installs the service map used for per-service scopes in the
    /// ingest-time partials. If records were appended before the map was
    /// available, the affected partials are refolded from raw so the
    /// per-service scopes are complete.
    ///
    /// The refold reads evicted extents back from their segments; if one
    /// cannot be read, the store is left as it was — the old map, the old
    /// partials — and the error is returned.
    pub fn set_service_map(&mut self, services: Arc<ServiceMap>) -> io::Result<()> {
        let previous = self.services.replace(services);
        if self.total_records > 0 {
            if let Err(e) = self.refold_partials(false) {
                self.services = previous;
                return Err(e);
            }
        }
        self.service_generation += 1;
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Appends a batch to a stream; `t` is the store time of the upload
    /// (WAL forensics and the ingest-delay span — it gates nothing). Each
    /// record is folded into its (stream, 10-minute-window) partial
    /// aggregate as it lands. Returns `false` (and stores nothing) for
    /// one reason only: a durable store whose WAL has failed closed. An
    /// in-memory store accepts every batch.
    pub fn append(&mut self, stream: StreamName, batch: &[ProbeRecord], t: SimTime) -> bool {
        // Durability first: the batch is acknowledged only once its WAL
        // frame is written. A failed-closed WAL refuses the append rather
        // than acknowledging data that would not survive a crash.
        let m = metrics();
        if let Some(log) = self.durable.as_mut() {
            let epoch_after = self.epoch.load(Ordering::Acquire) + 1;
            let write = Instant::now();
            let logged = log.log_append(stream.dc, batch, t, epoch_after);
            // The WAL write's share of the appender's hold on the store.
            m.wal_append_us.record_wall(write.elapsed());
            if !logged {
                m.rejected_batches.inc();
                return false;
            }
        }
        m.appended_records.add(batch.len() as u64);
        // Sim-bounded span: wall duration is the append compute; the sim
        // bounds measure oldest-record-to-store ingest delay.
        let mut span = pingmesh_obs::span("dsa.store", "append");
        if let Some(oldest) = batch.iter().map(|r| r.ts).min() {
            span = span.sim_start(oldest);
        }
        span.set_sim_end(t);
        // Provenance: sampled records park here until their window ticks.
        pingmesh_obs::trace::on_append_batch(batch, t, PARTIAL_WINDOW.as_micros());
        self.append_raw(stream, batch);
        self.publish_residency();
        // The fold's share of the hold.
        let fold = Instant::now();
        self.fold_into_partials(stream, batch);
        m.fold_us.record_wall(fold.elapsed());
        self.epoch.fetch_add(1, Ordering::Release);
        true
    }

    /// The extent-building half of an append: raw records only, no WAL,
    /// no partial fold, no epoch bump. Shared by the live append path and
    /// WAL replay (which re-runs the same path so recovered extent
    /// boundaries are identical to the pre-crash ones).
    fn append_raw(&mut self, stream: StreamName, batch: &[ProbeRecord]) {
        let cap = self.extent_cap;
        let extents = self.streams.entry(stream).or_default();
        let mut rest = batch;
        while let Some(first) = rest.first() {
            if extents.last().is_none_or(|e| e.sealed || e.len >= cap) {
                if let Some(last) = extents.last_mut() {
                    last.sealed = true;
                }
                extents.push(Extent {
                    id: self.next_extent,
                    records: Some(Arc::new(Vec::new())),
                    len: 0,
                    sealed: false,
                    min_ts: first.ts,
                    max_ts: first.ts,
                    sorted: true,
                    seg: None,
                });
                self.next_extent += 1;
            }
            let e = extents.last_mut().expect("just ensured");
            let (now, later) = rest.split_at((cap - e.len).min(rest.len()));
            let (mut min_ts, mut max_ts, mut sorted) = (e.min_ts, e.max_ts, e.sorted);
            let records = e.open_records();
            for rec in now {
                if rec.ts < max_ts {
                    sorted = false;
                }
                min_ts = min_ts.min(rec.ts);
                max_ts = max_ts.max(rec.ts);
                records.push(self.interner.pack(rec));
                self.total_bytes += rec.wire_size() as u64;
            }
            (e.min_ts, e.max_ts, e.sorted) = (min_ts, max_ts, sorted);
            e.len += now.len();
            self.total_records += now.len() as u64;
            self.resident_records += now.len() as u64;
            rest = later;
        }
    }

    /// Folds a just-accepted batch into its window partials.
    fn fold_into_partials(&mut self, stream: StreamName, batch: &[ProbeRecord]) {
        if batch.is_empty() {
            return;
        }
        self.fold_seq += 1;
        fold_window_runs(
            &mut self.partials,
            &mut self.partial_versions,
            stream,
            batch,
            self.fold_seq,
            self.services.as_deref(),
        );
        metrics().folded_records.add(batch.len() as u64);
    }

    /// Rebuilds every partial from the raw extents (used when the
    /// service map arrives after records did, and at recovery). Windows a
    /// retire closed stay closed: a kept extent that straddles the horizon
    /// must not bring their partials back. A resident extent is expanded
    /// and folded [`REFOLD_PIECE`] records at a time; an evicted one is
    /// read back from its segment (checksummed) and folded a piece at a
    /// time. With `rehydrate` (recovery), one that is no longer evictable
    /// keeps the records it read, packed. Nothing but the tables changes
    /// unless every read succeeds.
    fn refold_partials(&mut self, rehydrate: bool) -> io::Result<()> {
        let (mut partials, mut versions) = (Partials::new(), BTreeMap::new());
        let seq = self.fold_seq + 1;
        let services = self.services.as_deref();
        let frozen = self.frozen_before();
        let interner = &mut self.interner;
        let (mut loaded, mut piece) = (Vec::new(), Vec::new());
        for (&stream, extents) in &self.streams {
            for (i, e) in extents.iter().enumerate() {
                let mut fold = |records: &[ProbeRecord]| {
                    fold_window_runs(&mut partials, &mut versions, stream, records, seq, services);
                };
                let Some(log) = self.durable.as_ref().filter(|_| e.records.is_none()) else {
                    let tables = interner.tables();
                    for packed in e.records.as_deref().expect("resident").chunks(REFOLD_PIECE) {
                        piece.clear();
                        piece.extend(packed.iter().map(|p| tables.expand(p)));
                        fold(&piece);
                    }
                    continue;
                };
                let mut reader = log.open_segment(&e.meta(stream))?;
                if rehydrate && !e.evictable(frozen) {
                    let records = reader.read_all()?;
                    fold(&records);
                    let packed: Vec<PackedRecord> =
                        records.iter().map(|r| interner.pack(r)).collect();
                    loaded.push((stream, i, packed));
                } else {
                    reader.read_chunks(fold)?;
                }
            }
        }
        (self.partials, self.partial_versions, self.fold_seq) = (partials, versions, seq);
        for (stream, i, records) in loaded {
            let e = &mut self.streams.get_mut(&stream).expect("read above")[i];
            self.resident_records += e.len as u64;
            e.records = Some(Arc::new(records));
        }
        self.drop_retired_partials();
        Ok(())
    }

    /// Borrows the ingest-time partials covering `[from, to)`, stream by
    /// stream and window by window within a stream — the one place that
    /// knows how partials are keyed. A reader that renders a few scopes
    /// merges just those maps out of each partial instead of paying
    /// [`CosmosStore::merged_window_aggregate`] for all of them. Every
    /// partial yielded counts toward `pingmesh_dsa_partials_merged_total`.
    /// Both bounds must be aligned to [`PARTIAL_WINDOW`] (job windows
    /// are, by construction).
    pub fn partials_in(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &WindowAggregate> {
        debug_assert_aligned(from, to);
        // An inverted range is empty, not a `BTreeMap::range` panic.
        let to = to.max(from);
        let merged = pingmesh_obs::registry().counter("pingmesh_dsa_partials_merged_total");
        self.streams
            .keys()
            .flat_map(move |&stream| self.partials.range((stream, from)..(stream, to)))
            .map(move |(_, part)| {
                merged.inc();
                part
            })
    }

    /// The aggregate of `[from, to)`, read in place: borrowed when exactly
    /// one partial lies in range (a 10-minute tick over one stream),
    /// merged as [`CosmosStore::merged_window_aggregate`] otherwise.
    /// Bounds as for [`CosmosStore::partials_in`].
    pub fn window_aggregate(&self, from: SimTime, to: SimTime) -> Cow<'_, WindowAggregate> {
        let mut parts = self.partials_in(from, to);
        match (parts.next(), parts.next()) {
            (Some(only), None) => Cow::Borrowed(only),
            (first, second) => Cow::Owned(merge_all(first.into_iter().chain(second).chain(parts))),
        }
    }

    /// Merges the ingest-time partials covering `[from, to)` across all
    /// streams into one aggregate — O(scopes × windows), no record pass.
    /// Bounds as for [`CosmosStore::partials_in`].
    pub fn merged_window_aggregate(&self, from: SimTime, to: SimTime) -> WindowAggregate {
        merge_all(self.partials_in(from, to))
    }

    /// Number of live ingest-time partials (across all streams).
    pub fn partial_count(&self) -> usize {
        self.partials.len()
    }

    /// Shared handle to the store's mutation epoch. The counter is bumped
    /// on every mutation (append, service-map install/refold, retire), so
    /// a reader that saw epoch `e` when it built a result can later prove
    /// the result still fresh with one `Acquire` load — no store lock.
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Current mutation epoch (see [`CosmosStore::epoch_handle`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Deterministic fingerprint of everything that can influence a query
    /// over `[from, to)`: the service-map generation plus, for each
    /// in-range partial, its (stream, window, last-fold-seq) triple. Two
    /// calls return the same value iff no fold, refold, or retire touched
    /// the range in between — the result-cache validity token. O(windows
    /// in range), never touches records. Bounds must be aligned to
    /// [`PARTIAL_WINDOW`], like [`CosmosStore::merged_window_aggregate`].
    pub fn window_version(&self, from: SimTime, to: SimTime) -> u64 {
        debug_assert_aligned(from, to);
        // FNV-1a over the little-endian encodings; BTreeMap range order
        // makes the byte stream — and therefore the hash — deterministic.
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.service_generation);
        // Boot-id salt: after a crash+recovery every fingerprint moves,
        // so ETags minted against the pre-crash store can never falsely
        // revalidate a stale cached body (fold sequence numbers restart
        // at recovery and could otherwise collide).
        mix(self.boot_id);
        if from >= to {
            return h;
        }
        for &stream in self.streams.keys() {
            for (&(_, ws), &seq) in self.partial_versions.range((stream, from)..(stream, to)) {
                mix(stream.dc.0 as u64);
                mix(ws.as_micros());
                mix(seq);
            }
        }
        h
    }

    /// The freeze horizon: partial windows starting strictly before this
    /// are "frozen" — expected immutable, hence perfectly cacheable. The
    /// window containing the newest record is still filling. This is a
    /// cacheability *heuristic*; correctness against stragglers (a late
    /// upload into an old window) and late service-map refolds comes from
    /// [`CosmosStore::window_version`] changing.
    pub fn frozen_before(&self) -> Option<SimTime> {
        self.newest_ts().map(|t| t.window_start(PARTIAL_WINDOW))
    }

    /// The raw-record read path: a [`Scan`] of the extent runs that
    /// together hold exactly the records in `[from, to)`, stream by stream
    /// (`BTreeMap` order) and in append order within a stream. Extents
    /// carry time bounds, so whole extents outside the window are skipped
    /// — windows stay O(window), not O(history) — and straddling extents
    /// are trimmed by binary search when time-sorted, otherwise split into
    /// maximal in-window runs. A resident extent's runs are borrowed,
    /// packed, and expanded only as the scan is read; an evicted extent is
    /// read back from its segment now, with the same boundaries. A segment
    /// that cannot be read fails the scan: it never comes back short.
    pub fn try_scan_all_window_chunks(&self, from: SimTime, to: SimTime) -> io::Result<Scan<'_>> {
        let mut scan = Scan::new(self.interner.tables());
        let (mut scanned, mut skipped) = (0, 0);
        for (&stream, extents) in &self.streams {
            let (s, k) = self.chunks_of(stream, extents, from, to, &mut scan)?;
            scanned += s;
            skipped += k;
        }
        let reg = pingmesh_obs::registry();
        if scanned > 0 {
            reg.counter("pingmesh_dsa_extents_scanned_total")
                .add(scanned);
        }
        if skipped > 0 {
            reg.counter("pingmesh_dsa_extents_skipped_total")
                .add(skipped);
        }
        Ok(scan)
    }

    /// [`Self::try_scan_all_window_chunks`] for a caller with no error path:
    /// an in-memory store never fails a scan, and on a durable store a
    /// committed segment that cannot be read back panics here rather than
    /// letting the scan come back short.
    pub fn scan_all_window_chunks(&self, from: SimTime, to: SimTime) -> Scan<'_> {
        self.try_scan_all_window_chunks(from, to)
            .unwrap_or_else(|e| panic!("raw scan of [{from:?}, {to:?}) failed: {e}"))
    }

    /// Adds one stream's in-window runs to `scan`; returns how many extents
    /// it (scanned, skipped on their time bounds alone).
    fn chunks_of<'a>(
        &self,
        stream: StreamName,
        extents: &'a [Extent],
        from: SimTime,
        to: SimTime,
        scan: &mut Scan<'a>,
    ) -> io::Result<(u64, u64)> {
        let mut scanned = 0u64;
        let mut skipped = 0u64;
        for e in extents {
            if !e.overlaps(from, to) {
                skipped += 1;
                continue;
            }
            scanned += 1;
            match (&e.records, &self.durable) {
                (Some(records), _) => e.window_runs(
                    records,
                    |r| r.ts,
                    from,
                    to,
                    |r| {
                        scan.runs.push(Run::Resident(&records[r]));
                    },
                ),
                (None, Some(log)) => scan.read_back(log, stream, e, from, to)?,
                (None, None) => unreachable!("only a durable store evicts"),
            }
        }
        Ok((scanned, skipped))
    }

    /// Timestamp of the newest stored record, from extent bounds (O(extents)).
    pub fn newest_ts(&self) -> Option<SimTime> {
        self.stream_newest().map(|(_, ts)| ts).max()
    }

    /// Timestamp of the newest record per stream, from extent bounds
    /// (O(extents)) — the freshness SLO's per-stream input.
    pub fn newest_ts_per_stream(&self) -> Vec<(StreamName, SimTime)> {
        self.stream_newest().collect()
    }

    fn stream_newest(&self) -> impl Iterator<Item = (StreamName, SimTime)> + '_ {
        self.streams.iter().filter_map(|(stream, extents)| {
            let live = extents.iter().filter(|e| e.len > 0);
            live.map(|e| e.max_ts).max().map(|ts| (*stream, ts))
        })
    }

    /// DCs that have a stream (sorted; the serving tier's warm axis).
    pub fn stream_dcs(&self) -> Vec<DcId> {
        self.streams.keys().map(|s| s.dc).collect()
    }

    /// Total records stored.
    pub fn record_count(&self) -> u64 {
        self.total_records
    }

    /// Records held in memory: every record of an in-memory store; of a
    /// durable one, those of extents not evicted.
    pub fn resident_records(&self) -> u64 {
        self.resident_records
    }

    /// Bytes the records held in memory take, 32 a record, plus
    /// [`Self::table_bytes`] (extents' spare capacity is not counted).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_records * PACKED_BYTES as u64 + self.table_bytes()
    }

    /// Bytes of the endpoint and shape tables resident records are packed
    /// against.
    pub fn table_bytes(&self) -> u64 {
        self.interner.tables().bytes() as u64
    }

    /// Publishes `pingmesh_store_resident_bytes`, and
    /// `pingmesh_store_resident_records` for a durable store (that gauge
    /// tracks what persistence lets the store give up).
    fn publish_residency(&self) {
        let m = metrics();
        m.resident_bytes.set(self.resident_bytes() as f64);
        if self.durable.is_some() {
            m.resident_records.set(self.resident_records as f64);
        }
    }

    /// Logical bytes stored (before replication).
    pub fn logical_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Physical bytes including replication — the paper's "24 terabytes
    /// of data per day" is this figure for the production fleet.
    pub fn physical_bytes(&self) -> u64 {
        self.total_bytes * self.replication as u64
    }

    /// Drops all records older than `horizon` (the paper keeps two months
    /// of history). Whole extents are retired when their newest record is
    /// older than the horizon — O(extents), using the stored `max_ts`
    /// bound rather than rescanning records. Partials whose window closed
    /// before the horizon are retired with them.
    pub fn retire_before(&mut self, horizon: SimTime) {
        if let Some(log) = self.durable.as_mut() {
            let epoch_after = self.epoch.load(Ordering::Acquire) + 1;
            // A failed retire log marks the WAL failed-closed (further
            // appends are refused until a checkpoint heals it) but the
            // in-memory retire still proceeds: a retire that replays
            // short can only *keep* extra data, never lose acked records.
            let _ = log.log_retire(horizon, epoch_after);
        }
        self.retire_extents(horizon);
        self.retired_before = self.retired_before.max(horizon);
        self.drop_retired_partials();
        self.publish_residency();
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Drops the partials of windows closed before the retention horizon.
    fn drop_retired_partials(&mut self) {
        let horizon = self.retired_before;
        self.partials
            .retain(|&(_, ws), _| ws + PARTIAL_WINDOW > horizon);
        self.partial_versions
            .retain(|&(_, ws), _| ws + PARTIAL_WINDOW > horizon);
    }

    /// Extent-retention half of a retire, shared with WAL replay: drops
    /// whole extents whose newest record predates the horizon and
    /// tombstones their persisted segments for GC at the next checkpoint.
    fn retire_extents(&mut self, horizon: SimTime) {
        let mut dropped = Vec::new();
        for extents in self.streams.values_mut() {
            extents.retain(|e| {
                if e.max_ts >= horizon {
                    true
                } else {
                    if let Some(id) = e.seg {
                        dropped.push(id);
                    }
                    if e.records.is_some() {
                        self.resident_records -= e.len as u64;
                    }
                    false
                }
            });
        }
        if let Some(log) = self.durable.as_mut() {
            for id in dropped {
                log.tombstone(id);
            }
        }
    }

    /// Runs a whole checkpoint inline — plan, write, commit, GC — with
    /// `&mut self` held throughout: seals each stream's open extent,
    /// persists every sealed-but-unsegmented extent as an immutable
    /// segment file, atomically commits the manifest and garbage-collects
    /// what it superseded. On an in-memory store it only seals, so a
    /// reference store can mirror a durable one's extent boundaries. A
    /// shared store's [`Compactor`](crate::compactor::Compactor) locks
    /// only for the plan and the commit.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let Some(plan) = self.plan_checkpoint()? else {
            return Ok(());
        };
        self.commit_checkpoint(plan.write()?)?.run();
        Ok(())
    }

    /// Checkpoints inline when one is due: the live WAL holds `threshold`
    /// bytes (production: [`WAL_CHECKPOINT_BYTES`]), or it is failed-closed
    /// and a checkpoint would heal it. Returns whether a checkpoint ran
    /// (never on an in-memory store).
    pub fn maybe_checkpoint_with(&mut self, threshold: u64) -> io::Result<bool> {
        let due = self.checkpoint_due(threshold);
        if due {
            self.checkpoint()?;
        }
        Ok(due)
    }

    /// Whether a checkpoint is due at `threshold` (see
    /// [`Self::maybe_checkpoint_with`]).
    pub(crate) fn checkpoint_due(&self, threshold: u64) -> bool {
        let log = self.durable.as_ref();
        log.is_some_and(|log| log.checkpoint_due(threshold))
    }

    /// Phase 1 of a checkpoint (hold the lock): rotates the WAL to a fresh
    /// file — freezing the old ones, and healing a failed-closed WAL —
    /// then seals each stream's open extent, and takes an owning plan in
    /// one pass over the extents: those with a segment are kept, those
    /// without become fresh segments (their packed records shared, not
    /// copied, with a snapshot of the tables to expand them by).
    /// An extent is sealed here exactly when the rotation succeeded, so
    /// recovery, which seals at every WAL file boundary, rebuilds the same
    /// extents. An in-memory store only seals, and gets `None`.
    pub fn plan_checkpoint(&mut self) -> io::Result<Option<CheckpointPlan>> {
        if let Some(log) = self.durable.as_mut() {
            log.rotate_wal()?;
        }
        self.seal_open_extents();
        let Some(log) = self.durable.as_mut() else {
            return Ok(None);
        };
        let (mut keep, mut fresh) = (Vec::new(), Vec::new());
        for (&stream, extents) in &self.streams {
            for e in extents {
                let meta = e.meta(stream);
                match (e.seg, &e.records) {
                    (Some(_), _) => keep.push(meta),
                    (None, Some(records)) => fresh.push((e.id, meta, Arc::clone(records))),
                    (None, None) => unreachable!("an extent without a segment is resident"),
                }
            }
        }
        let epoch = self.epoch.load(Ordering::Acquire);
        let tables = self.interner.tables().clone();
        Ok(Some(log.plan_checkpoint(keep, fresh, tables, epoch)))
    }

    /// Seals each stream's open extent — the only unsealed one, its last —
    /// and gives back its spare capacity: the `Vec` is still unshared, and
    /// a plan is about to share it for good.
    fn seal_open_extents(&mut self) {
        for e in self.streams.values_mut().filter_map(|x| x.last_mut()) {
            if !e.sealed {
                e.open_records().shrink_to_fit();
                e.sealed = true;
            }
        }
    }

    /// Phase 3 of a checkpoint (hold the lock; O(extents)): commits the
    /// written files unless the plan went stale (a recovery, or another
    /// plan, since it was taken), then stamps each new segment id onto its
    /// extent. An extent retired while the files were written has its new
    /// segment tombstoned instead. Then every extent that has a segment
    /// and only frozen windows is evicted — this commit's and those whose
    /// windows froze since an earlier one. Run the returned
    /// [`CheckpointGc`] after releasing the lock: it frees the evicted
    /// records.
    pub fn commit_checkpoint(&mut self, written: WrittenCheckpoint) -> io::Result<CheckpointGc> {
        let Some(log) = self.durable.as_mut() else {
            return Err(io::Error::other("commit_checkpoint on an in-memory store"));
        };
        let (mut gc, assigned) = log.commit_checkpoint(written)?;
        for (dc, id, seg) in assigned {
            // Extent ids increase in append order within a stream.
            let extent = self
                .streams
                .get_mut(&StreamName { dc: DcId(dc) })
                .and_then(|x| {
                    let at = x.binary_search_by_key(&id, |e| e.id).ok()?;
                    x.get_mut(at)
                });
            match extent {
                Some(e) => e.seg = Some(seg),
                None => log.tombstone(seg),
            }
        }
        let frozen = self.frozen_before();
        for e in self.streams.values_mut().flatten() {
            if e.evictable(frozen) {
                if let Some(records) = e.records.take() {
                    self.resident_records -= e.len as u64;
                    gc.evicted.push(records);
                }
            }
        }
        self.publish_residency();
        Ok(gc)
    }

    /// Forces the WAL to stable storage inline, zeroing the flush lag. A
    /// no-op for in-memory stores. A shared store's
    /// [`Compactor`](crate::compactor::Compactor) fsyncs unlocked.
    pub fn sync_wal(&mut self) -> io::Result<()> {
        match self.durable.as_mut() {
            Some(log) => log.sync(),
            None => Ok(()),
        }
    }

    /// Recovery generation: 0 on first boot, +1 per recovery (and always
    /// 0 for in-memory stores).
    pub fn boot_id(&self) -> u64 {
        self.boot_id
    }

    /// The durable directory, if this store persists.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|log| log.dir())
    }

    /// Point-in-time durability stats, `None` for in-memory stores.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.durable.as_ref().map(|log| log.stats())
    }

    /// Chaos hook: injects `n` artificial IO errors into upcoming WAL
    /// writes (no-op for in-memory stores).
    pub fn inject_wal_io_errors(&mut self, n: u32) {
        if let Some(log) = self.durable.as_mut() {
            log.inject_io_errors(n);
        }
    }

    /// Chaos hook: writes a torn (half-written, never-acknowledged) WAL
    /// frame *without* applying the batch in memory — the on-disk state
    /// of a crash mid-append. Recovery must truncate it and lose nothing
    /// acknowledged.
    pub fn simulate_torn_append(
        &mut self,
        stream: StreamName,
        batch: &[ProbeRecord],
    ) -> io::Result<()> {
        match self.durable.as_mut() {
            Some(log) => log.write_torn_entry(stream.dc, batch),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::durable;
    use pingmesh_types::{
        PodId, PodsetId, ProbeKind, ProbeOutcome, QosClass, ServerId, SimDuration,
    };

    /// A stream-0 record at `ts` µs (shared with other modules' tests).
    pub(crate) fn rec(ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts: SimTime(ts),
            src: ServerId(0),
            dst: ServerId(1),
            src_pod: PodId(0),
            dst_pod: PodId(1),
            src_podset: PodsetId(0),
            dst_podset: PodsetId(0),
            src_dc: DcId(0),
            dst_dc: DcId(0),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(300),
            },
        }
    }

    const S: StreamName = StreamName { dc: DcId(0) };

    /// 10 minutes in store-time microseconds.
    const W: u64 = 600_000_000;

    /// The windowed scan under test, flattened.
    fn chunked(store: &CosmosStore, from: SimTime, to: SimTime) -> Vec<ProbeRecord> {
        let chunks = store.scan_all_window_chunks(from, to);
        chunks.records().collect()
    }

    /// Every stored record (whole extents, no trimming).
    fn all(store: &CosmosStore) -> Vec<ProbeRecord> {
        chunked(store, SimTime(0), SimTime(u64::MAX))
    }

    /// The reference read: every record, filtered one by one.
    fn filtered(store: &CosmosStore, from: SimTime, to: SimTime) -> Vec<ProbeRecord> {
        let mut records = all(store);
        records.retain(|r| r.ts >= from && r.ts < to);
        records
    }

    /// The length of every extent alive in the store: a whole-range scan
    /// yields each as one chunk.
    fn extent_lens(store: &CosmosStore) -> Vec<usize> {
        let chunks = store.scan_all_window_chunks(SimTime(0), SimTime(u64::MAX));
        chunks.iter().map(|c| c.len()).collect()
    }

    /// A scan's chunks, expanded.
    fn chunk_vecs(scan: &Scan<'_>) -> Vec<Vec<ProbeRecord>> {
        scan.iter().collect()
    }

    fn extent_count(store: &CosmosStore) -> usize {
        extent_lens(store).len()
    }

    fn ts_of(records: &[ProbeRecord]) -> Vec<u64> {
        records.iter().map(|r| r.ts.as_micros()).collect()
    }

    #[test]
    fn append_and_scan_preserve_order() {
        let mut store = CosmosStore::new(10, 3);
        let batch: Vec<ProbeRecord> = (0..25).map(rec).collect();
        assert!(store.append(S, &batch, SimTime(100)));
        let ts = ts_of(&all(&store));
        assert_eq!(ts, (0..25).collect::<Vec<_>>());
        // 25 records at 10/extent → 3 extents, earlier ones sealed.
        assert_eq!(extent_count(&store), 3);
    }

    #[test]
    fn window_scan_filters_by_time() {
        let mut store = CosmosStore::with_defaults();
        store.append(S, &(0..100).map(rec).collect::<Vec<_>>(), SimTime(0));
        let n = chunked(&store, SimTime(10), SimTime(20)).len();
        assert_eq!(n, 10);
        let all = chunked(&store, SimTime(0), SimTime(1_000)).len();
        assert_eq!(all, 100);
    }

    #[test]
    fn in_memory_append_accepts_a_batch_at_any_time() {
        // Only a failed-closed WAL refuses a batch; the store has no
        // notion of being "down at t" (outages are the simulator's).
        let mut store = CosmosStore::with_defaults();
        for (i, t) in [0, 150, u64::MAX, 7].into_iter().enumerate() {
            assert!(store.append(S, &[rec(1)], SimTime(t)), "t = {t}");
            assert_eq!(store.record_count(), i as u64 + 1);
        }
        assert_eq!(store.partial_count(), 1);
    }

    #[test]
    fn accounting_tracks_bytes_and_replication() {
        let mut store = CosmosStore::new(100, 3);
        store.append(S, &(0..10).map(rec).collect::<Vec<_>>(), SimTime(0));
        assert_eq!(store.record_count(), 10);
        assert_eq!(store.logical_bytes(), 10 * 64);
        assert_eq!(store.physical_bytes(), 3 * 10 * 64);
    }

    #[test]
    fn streams_are_independent() {
        let mut store = CosmosStore::with_defaults();
        let s1 = StreamName { dc: DcId(1) };
        let in_dc1 = |ts| ProbeRecord {
            src_dc: s1.dc,
            ..rec(ts)
        };
        store.append(S, &[rec(1)], SimTime(0));
        store.append(s1, &[in_dc1(2), in_dc1(3)], SimTime(0));
        // Two streams, two extents, stream order: dc0's record first.
        let chunks = chunk_vecs(&store.scan_all_window_chunks(SimTime(0), SimTime(u64::MAX)));
        assert_eq!(chunks, [vec![rec(1)], vec![in_dc1(2), in_dc1(3)]]);
    }

    #[test]
    fn retirement_drops_old_extents() {
        let mut store = CosmosStore::new(10, 1);
        store.append(S, &(0..30).map(rec).collect::<Vec<_>>(), SimTime(0));
        assert_eq!(extent_count(&store), 3);
        // Horizon past the first two extents (records 0..20).
        store.retire_before(SimTime(20));
        assert_eq!(extent_count(&store), 1);
        assert_eq!(all(&store).len(), 10);
    }

    #[test]
    fn retirement_drops_closed_partials() {
        let mut store = CosmosStore::new(10, 1);
        // Three 10-min windows' worth of records, one per minute.
        let batch: Vec<ProbeRecord> = (0..30).map(|i| rec(i * 60_000_000)).collect();
        store.append(S, &batch, SimTime(0));
        assert_eq!(store.partial_count(), 3);
        // Horizon inside the second window: the first window is closed
        // and retired, the straddled one is kept.
        store.retire_before(SimTime(W + 60_000_000));
        assert_eq!(store.partial_count(), 2);
        assert_eq!(
            store
                .merged_window_aggregate(SimTime(0), SimTime(W))
                .record_count,
            0
        );
        assert_eq!(
            store
                .merged_window_aggregate(SimTime(W), SimTime(3 * W))
                .record_count,
            20
        );
    }

    #[test]
    fn window_view_borrows_one_partial_and_merges_the_rest() {
        let mut store = CosmosStore::new(10, 1);
        let s1 = StreamName { dc: DcId(1) };
        // Stream S fills windows 0 and 1, stream s1 window 0 only.
        let batch: Vec<ProbeRecord> = (0..20).map(|i| rec(i * 60_000_000)).collect();
        store.append(S, &batch, SimTime(0));
        let in_dc1 = |ts| ProbeRecord {
            src_dc: s1.dc,
            ..rec(ts)
        };
        store.append(s1, &[in_dc1(5), in_dc1(7)], SimTime(0));
        for (from, to, partials) in [(2 * W, 3 * W, 0), (W, 2 * W, 1), (0, 2 * W, 3)] {
            let (from, to) = (SimTime(from), SimTime(to));
            assert_eq!(store.partials_in(from, to).count(), partials);
            let view = store.window_aggregate(from, to);
            assert_eq!(matches!(view, Cow::Borrowed(_)), partials == 1);
            assert_eq!(
                *view,
                store.merged_window_aggregate(from, to),
                "{partials} partials"
            );
        }
    }

    #[test]
    fn windowed_scans_skip_nonoverlapping_sealed_extents() {
        let mut store = CosmosStore::new(10, 1);
        // 5 extents of 10 records, 1 s apart: extent k covers [10k, 10k+9] s.
        let batch: Vec<ProbeRecord> = (0..50).map(|i| rec(i * 1_000_000)).collect();
        store.append(S, &batch, SimTime(0));
        assert_eq!(extent_count(&store), 5);
        // Window [20 s, 30 s): only extent 2 overlaps.
        let (from, to) = (SimTime(20_000_000), SimTime(30_000_000));
        let mut chunks = Scan::new(store.interner.tables());
        let (scanned, skipped) = store
            .chunks_of(S, &store.streams[&S], from, to, &mut chunks)
            .unwrap();
        assert_eq!(chunks.records().count(), 10);
        assert_eq!(scanned, 1, "exactly one extent scanned");
        assert_eq!(skipped, 4, "the four non-overlapping extents skipped");
        assert_eq!(
            chunk_vecs(&chunks),
            chunk_vecs(&store.scan_all_window_chunks(from, to))
        );
    }

    #[test]
    fn chunked_scan_matches_filtered_scan() {
        let mut store = CosmosStore::new(7, 1);
        // Two streams, extents straddling the window bounds.
        let s1 = StreamName { dc: DcId(1) };
        store.append(
            S,
            &(0..40).map(|i| rec(i * 1_000_000)).collect::<Vec<_>>(),
            SimTime(0),
        );
        store.append(
            s1,
            &(0..40)
                .map(|i| rec(500_000 + i * 1_000_000))
                .collect::<Vec<_>>(),
            SimTime(0),
        );
        let (from, to) = (SimTime(9_500_000), SimTime(31_000_000));
        let flat = chunked(&store, from, to);
        assert_eq!(flat, filtered(&store, from, to));
        assert!(!flat.is_empty());
    }

    #[test]
    fn chunked_scan_handles_unsorted_straddling_extents() {
        let mut store = CosmosStore::new(100, 1);
        // Out-of-order batch: the single extent straddles the 10 s bound
        // with in-window runs separated by out-of-window records.
        let ts = [12_000_000u64, 3_000_000, 15_000_000, 7_000_000, 11_000_000];
        let batch: Vec<ProbeRecord> = ts.iter().map(|&t| rec(t)).collect();
        store.append(S, &batch, SimTime(0));
        let chunks = store.scan_all_window_chunks(SimTime(10_000_000), SimTime(20_000_000));
        let flat = ts_of(&chunked(&store, SimTime(10_000_000), SimTime(20_000_000)));
        assert_eq!(flat, vec![12_000_000, 15_000_000, 11_000_000]);
        // Runs, not per-record slices: [12], [15], [11] are three runs
        // here because each is broken by an out-of-window neighbour.
        assert_eq!(chunks.len(), 3);
    }

    #[test]
    fn unsorted_extent_across_ten_min_boundary_loses_and_duplicates_nothing() {
        // Satellite regression: the `partition_point` trim in `chunks_of`
        // is only valid on extents whose `sorted` flag is set. This
        // extent is appended out of order *straddling* the 10-min window
        // boundary, so a trim that ignored the flag would both lose
        // in-window records (those before `lo`) and leak out-of-window
        // ones (between `lo` and `hi`).
        let mut store = CosmosStore::new(100, 1);
        let ts = [
            W + 30_000_000, // second window
            W - 10_000_000, // first window, after a later ts → unsorted
            W + 1,          // second window, boundary + 1 µs
            W - 1,          // first window, boundary - 1 µs
            2 * W - 1,      // second window, right edge
            5_000_000,      // first window, early
            W,              // exactly on the boundary → second window
        ];
        let batch: Vec<ProbeRecord> = ts.iter().map(|&t| rec(t)).collect();
        store.append(S, &batch, SimTime(0));
        assert_eq!(extent_count(&store), 1, "one straddling extent");
        for (from, to) in [(0, W), (W, 2 * W), (0, 2 * W)] {
            let (from, to) = (SimTime(from), SimTime(to));
            let mut flat = ts_of(&chunked(&store, from, to));
            let mut expect: Vec<u64> = ts
                .iter()
                .copied()
                .filter(|&t| t >= from.as_micros() && t < to.as_micros())
                .collect();
            flat.sort_unstable();
            expect.sort_unstable();
            assert_eq!(flat, expect, "window [{from:?}, {to:?})");
        }
        // The two half-windows partition the full window exactly: no
        // record lost, none duplicated.
        let count = |from, to| chunked(&store, SimTime(from), SimTime(to)).len();
        assert_eq!(count(0, W) + count(W, 2 * W), ts.len());
        // And chunked output stays identical to the filtered scan.
        assert_eq!(
            chunked(&store, SimTime(0), SimTime(W)),
            filtered(&store, SimTime(0), SimTime(W))
        );
    }

    #[test]
    fn sorted_extent_trim_is_exact_at_window_boundaries() {
        // Companion to the unsorted case: a time-sorted straddling extent
        // takes the binary-search trim, which must honour the half-open
        // [from, to) convention exactly (a record at `to` is excluded, a
        // record at `from` included).
        let mut store = CosmosStore::new(100, 1);
        let batch: Vec<ProbeRecord> = [W - 2, W - 1, W, W + 1].iter().map(|&t| rec(t)).collect();
        store.append(S, &batch, SimTime(0));
        let flat = ts_of(&chunked(&store, SimTime(0), SimTime(W)));
        assert_eq!(flat, vec![W - 2, W - 1]);
        let flat = ts_of(&chunked(&store, SimTime(W), SimTime(2 * W)));
        assert_eq!(flat, vec![W, W + 1]);
    }

    #[test]
    fn ingest_partials_match_rebuild_on_straddling_extents() {
        // Extent cap of 7 deliberately misaligns extent boundaries with
        // the 10-min windows, so extents straddle tick bounds.
        let mut store = CosmosStore::new(7, 1);
        // 20 records 100 s apart → four windows (6 + 6 + 6 + 2 records).
        let batch: Vec<ProbeRecord> = (0..20).map(|i| rec(i * 100_000_000)).collect();
        // Append in two out-of-order halves to exercise unsorted extents.
        store.append(S, &batch[10..], SimTime(0));
        store.append(S, &batch[..10], SimTime(0));
        assert_eq!(store.partial_count(), 4);
        for (from, to, want) in [(0, W, 6u64), (W, 2 * W, 6), (0, 2 * W, 12), (0, 4 * W, 20)] {
            let merged = store.merged_window_aggregate(SimTime(from), SimTime(to));
            assert_eq!(merged.record_count, want, "window [{from}, {to})");
            let raw = chunked(&store, SimTime(from), SimTime(to));
            let rebuilt = WindowAggregate::build_with(&raw, None);
            assert_eq!(merged, rebuilt, "window [{from}, {to})");
        }
    }

    /// Seeded batches of interleaved agents' runs in two streams: ranges
    /// straddle windows, and records are intra-pod, inter-pod and inter-DC,
    /// of both payload kinds and both QoS classes, with timeouts, refusals
    /// and 3 s / 9 s RTTs. Batch 5 keeps one `src` but changes its other
    /// source fields record by record, so a run must break on each.
    fn mixed_batches(seed: u64) -> Vec<(StreamName, Vec<ProbeRecord>)> {
        let mut state = seed | 1;
        let mut next = move |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % n
        };
        let mut batches = Vec::new();
        for b in 0..40u64 {
            let dc = next(2) as u32;
            let (mut t, step) = (b * W / 4 + next(W / 2), 1 + next(W / 400));
            let mut src = next(12) as u32;
            let records = (0..300u32)
                .map(|i| {
                    if next(5) == 0 {
                        src = next(12) as u32;
                    }
                    t += step;
                    let (dst, dst_dc) = match next(3) {
                        0 => (src ^ 1, dc),         // same pod
                        1 => (next(12) as u32, dc), // usually another pod
                        _ => (next(12) as u32, 1 - dc),
                    };
                    let server = |s: u32, dc: u32| s + 100 * dc;
                    let mut r = ProbeRecord {
                        ts: SimTime(if next(20) == 0 {
                            t.saturating_sub(W)
                        } else {
                            t
                        }),
                        src: ServerId(server(src, dc)),
                        dst: ServerId(server(dst, dst_dc)),
                        src_pod: PodId(server(src / 2, dc)),
                        dst_pod: PodId(server(dst / 2, dst_dc)),
                        src_podset: PodsetId(server(src / 4, dc)),
                        dst_podset: PodsetId(server(dst / 4, dst_dc)),
                        src_dc: DcId(dc),
                        dst_dc: DcId(dst_dc),
                        kind: [ProbeKind::TcpSyn, ProbeKind::TcpPayload(1_000)][next(2) as usize],
                        qos: [QosClass::High, QosClass::Low][next(2) as usize],
                        src_port: 40_000,
                        dst_port: 8_100,
                        outcome: match next(10) {
                            0 => ProbeOutcome::Timeout,
                            1 => ProbeOutcome::Refused,
                            2 => ProbeOutcome::Success {
                                rtt: SimDuration::from_micros(3_000_000 + next(900)),
                            },
                            3 => ProbeOutcome::Success {
                                rtt: SimDuration::from_micros(9_000_000 + next(900)),
                            },
                            _ => ProbeOutcome::Success {
                                rtt: SimDuration::from_micros(100 + next(2_000)),
                            },
                        },
                    };
                    if b == 5 {
                        r.src = ServerId(7);
                        match i % 4 {
                            1 => r.src_pod = PodId(r.src_pod.0 + 50),
                            2 => r.src_podset = PodsetId(r.src_podset.0 + 50),
                            3 => r.src_dc = DcId(r.src_dc.0 + 2),
                            _ => {}
                        }
                    }
                    r
                })
                .collect();
            batches.push((StreamName { dc: DcId(dc) }, records));
        }
        batches
    }

    #[test]
    fn run_folded_partials_equal_per_record_folds_per_stream_and_window() {
        let mut services = ServiceMap::new();
        let ids = |r: std::ops::Range<u32>| r.map(ServerId).collect::<Vec<_>>();
        services.register("search", ids(0..6)).unwrap();
        services.register("web", ids(3..9)).unwrap();
        services.register("storage", ids(100..108)).unwrap();
        let services = Arc::new(services);
        for seed in [41, 42, 43] {
            let batches = mixed_batches(seed);
            let mut by_window: BTreeMap<(StreamName, SimTime), Vec<ProbeRecord>> = BTreeMap::new();
            for (stream, batch) in &batches {
                for r in batch {
                    let key = (*stream, r.ts.window_start(PARTIAL_WINDOW));
                    by_window.entry(key).or_default().push(*r);
                }
            }
            // Service map: none, installed before the appends (the
            // append's fold), installed after them (the refold).
            for (early, late) in [
                (None, None),
                (Some(&services), None),
                (None, Some(&services)),
            ] {
                let mut store = CosmosStore::new(97, 1);
                if let Some(s) = early {
                    store.set_service_map(Arc::clone(s)).unwrap();
                }
                for (stream, batch) in &batches {
                    assert!(store.append(*stream, batch, SimTime(0)));
                }
                if let Some(s) = late {
                    store.set_service_map(Arc::clone(s)).unwrap();
                }
                let svc = early.or(late).map(|s| &**s);
                assert_eq!(store.partial_count(), by_window.len());
                for (key, records) in &by_window {
                    let mut one_by_one = WindowAggregate::default();
                    for r in records {
                        match svc {
                            Some(s) => one_by_one.fold_with_services(r, s),
                            None => one_by_one.fold(r),
                        }
                    }
                    let part = &store.partials[key];
                    assert_eq!(*part, one_by_one, "seed {seed} {key:?}");
                    assert_eq!(*part, WindowAggregate::build_with(records, svc), "{key:?}");
                    assert_eq!(part.per_service.is_empty(), svc.is_none(), "{key:?}");
                }
            }
        }
    }

    #[test]
    fn late_service_map_refolds_partials() {
        let mut store = CosmosStore::new(10, 1);
        store.append(S, &(0..5).map(rec).collect::<Vec<_>>(), SimTime(0));
        let agg = store.merged_window_aggregate(SimTime(0), SimTime(W));
        assert!(agg.per_service.is_empty());
        let mut services = ServiceMap::new();
        services
            .register("search", [ServerId(0), ServerId(1)])
            .unwrap();
        store.set_service_map(Arc::new(services)).unwrap();
        let agg = store.merged_window_aggregate(SimTime(0), SimTime(W));
        assert_eq!(agg.per_service.len(), 1);
        assert_eq!(agg.per_service.values().next().unwrap().stats.ok, 5);
    }

    #[test]
    fn newest_ts_tracks_extent_bounds() {
        let mut store = CosmosStore::with_defaults();
        assert_eq!(store.newest_ts(), None);
        store.append(S, &[rec(5), rec(3), rec(9), rec(1)], SimTime(0));
        assert_eq!(store.newest_ts(), Some(SimTime(9)));
    }

    #[test]
    fn window_version_is_stable_at_quiescence_and_range_scoped() {
        let mut store = CosmosStore::new(10, 1);
        // Records in windows 0 and 2.
        store.append(S, &[rec(1), rec(2 * W + 1)], SimTime(0));
        let v0 = store.window_version(SimTime(0), SimTime(W));
        assert_eq!(v0, store.window_version(SimTime(0), SimTime(W)), "stable");
        // Appending into window 2 leaves window 0's version untouched...
        store.append(S, &[rec(2 * W + 5)], SimTime(0));
        assert_eq!(v0, store.window_version(SimTime(0), SimTime(W)));
        // ...but changes the version of any range covering window 2.
        let v2a = store.window_version(SimTime(2 * W), SimTime(3 * W));
        store.append(S, &[rec(2 * W + 9)], SimTime(0));
        assert_ne!(v2a, store.window_version(SimTime(2 * W), SimTime(3 * W)));
        // A straggler landing in frozen window 0 invalidates it too.
        store.append(S, &[rec(7)], SimTime(0));
        assert_ne!(v0, store.window_version(SimTime(0), SimTime(W)));
    }

    #[test]
    fn window_version_changes_on_service_refold_and_retire() {
        let mut store = CosmosStore::new(10, 1);
        store.append(S, &[rec(1), rec(2)], SimTime(0));
        let v0 = store.window_version(SimTime(0), SimTime(W));
        // Late service-map install refolds everything: every range's
        // version must move even though record contents didn't.
        let mut services = ServiceMap::new();
        services.register("web", [ServerId(0)]).unwrap();
        store.set_service_map(Arc::new(services)).unwrap();
        let v1 = store.window_version(SimTime(0), SimTime(W));
        assert_ne!(v0, v1, "refold must invalidate");
        // Retiring the window changes it again (partial disappears).
        store.retire_before(SimTime(W));
        let v2 = store.window_version(SimTime(0), SimTime(W));
        assert_ne!(v1, v2, "retire must invalidate");
        // Empty range over an empty store: still deterministic.
        assert_eq!(
            store.window_version(SimTime(3 * W), SimTime(3 * W)),
            store.window_version(SimTime(3 * W), SimTime(3 * W)),
        );
    }

    #[test]
    fn epoch_bumps_on_every_mutation_kind() {
        let mut store = CosmosStore::new(10, 1);
        let handle = store.epoch_handle();
        let e0 = handle.load(Ordering::Acquire);
        store.append(S, &[rec(1)], SimTime(0));
        let e1 = handle.load(Ordering::Acquire);
        assert!(e1 > e0, "append bumps");
        let mut services = ServiceMap::new();
        services.register("web", [ServerId(0)]).unwrap();
        store.set_service_map(Arc::new(services)).unwrap();
        let e2 = handle.load(Ordering::Acquire);
        assert!(e2 > e1, "service install bumps");
        store.retire_before(SimTime(W));
        let e3 = handle.load(Ordering::Acquire);
        assert!(e3 > e2, "retire bumps");
        // (A refused append is not a mutation: see
        // `wal_io_failure_fails_closed_and_checkpoint_heals`.)
        assert_eq!(store.epoch(), e3);
    }

    fn recovered_equals(a: &CosmosStore, b: &CosmosStore, windows: u64) {
        assert_eq!(a.record_count(), b.record_count(), "record counts");
        assert_eq!(a.logical_bytes(), b.logical_bytes(), "logical bytes");
        assert_eq!(a.partial_count(), b.partial_count(), "partial counts");
        let (from, to) = (SimTime(0), SimTime(windows * W));
        assert_eq!(
            a.merged_window_aggregate(from, to),
            b.merged_window_aggregate(from, to),
            "merged aggregates must be bit-identical"
        );
        assert_eq!(
            chunked(a, from, to),
            chunked(b, from, to),
            "chunked scans must agree"
        );
    }

    #[test]
    fn durable_store_recovers_scans_and_aggregates_bit_identical() {
        let dir = durable::unique_dir("store-roundtrip");
        let _guard = durable::DirGuard::new(dir.clone());
        let batches: Vec<Vec<ProbeRecord>> = (0..6)
            .map(|b| {
                (0..40)
                    .map(|i| rec(b * 40_000_000 + i * 1_000_000))
                    .collect()
            })
            .collect();
        let mut reference = CosmosStore::new(25, 1);
        let pre_epoch;
        {
            let mut store = CosmosStore::durable(&dir, 25, 1).unwrap();
            assert_eq!(store.boot_id(), 0);
            for b in &batches {
                assert!(store.append(S, b, SimTime(0)));
                assert!(reference.append(S, b, SimTime(0)));
            }
            // Checkpoint mid-history so recovery exercises segments + WAL;
            // the reference seals where the checkpoint does.
            store.checkpoint().unwrap();
            reference.checkpoint().unwrap();
            assert!(store.append(S, &batches[0], SimTime(0)));
            assert!(reference.append(S, &batches[0], SimTime(0)));
            pre_epoch = store.epoch();
        } // crash (drop without checkpoint)
        let store = CosmosStore::durable(&dir, 25, 1).unwrap();
        assert_eq!(store.boot_id(), 1, "recovery bumps the boot id");
        assert!(store.epoch() > pre_epoch, "epoch rises past every ack");
        recovered_equals(&store, &reference, 2);
        assert_eq!(
            extent_lens(&store),
            extent_lens(&reference),
            "replay reproduces extent boundaries"
        );
    }

    #[test]
    fn torn_wal_tail_loses_nothing_acknowledged() {
        let dir = durable::unique_dir("store-torn");
        let _guard = durable::DirGuard::new(dir.clone());
        let acked: Vec<ProbeRecord> = (0..30).map(|i| rec(i * 1_000_000)).collect();
        let unacked: Vec<ProbeRecord> = (0..10).map(|i| rec(500_000_000 + i)).collect();
        {
            let mut store = CosmosStore::durable(&dir, 8, 1).unwrap();
            assert!(store.append(S, &acked, SimTime(0)));
            // Crash mid-append: frame half-written, never acknowledged.
            store.simulate_torn_append(S, &unacked).unwrap();
        }
        let store = CosmosStore::durable(&dir, 8, 1).unwrap();
        assert_eq!(store.record_count(), 30, "all acked records survive");
        assert_eq!(
            all(&store).len(),
            30,
            "the torn batch must not partially appear"
        );
        let stats = store.durability_stats().unwrap();
        assert_eq!(stats.truncated_entries, 1, "torn tail detected");
        assert_eq!(stats.corrupt_entries, 0);
    }

    #[test]
    fn crash_mid_compaction_recovers_and_collects_orphans() {
        let dir = durable::unique_dir("store-compact");
        let _guard = durable::DirGuard::new(dir.clone());
        let batch: Vec<ProbeRecord> = (0..50).map(|i| rec(i * 1_000_000)).collect();
        let mut reference = CosmosStore::new(10, 1);
        {
            let mut store = CosmosStore::durable(&dir, 10, 1).unwrap();
            assert!(store.append(S, &batch[..45], SimTime(0)));
            assert!(reference.append(S, &batch[..45], SimTime(0)));
            // Crash between compaction's file writes and the manifest
            // commit: old and new segments and WALs now coexist. The plan
            // sealed the 5-record open extent, and the next append lands
            // behind it in the WAL the plan rotated to.
            let plan = store.plan_checkpoint().unwrap().expect("durable");
            drop(plan.write().unwrap());
            assert!(store.append(S, &batch[45..], SimTime(0)));
            assert!(reference.append(S, &batch[45..], SimTime(0)));
        }
        let files_before = std::fs::read_dir(&dir).unwrap().count();
        let store = CosmosStore::durable(&dir, 10, 1).unwrap();
        recovered_equals(&store, &reference, 1);
        assert_eq!(
            extent_lens(&store),
            vec![10, 10, 10, 10, 5, 5],
            "replay seals at the WAL file boundary, as the plan did"
        );
        // Recovery's fresh checkpoint garbage-collected the orphans: one
        // manifest, one WAL, and only the live segments remain.
        let mut wals = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            assert!(
                name == "MANIFEST" || name.starts_with("seg-") || name.starts_with("wal-"),
                "{name}: no temp manifests, pins or other files"
            );
            wals += usize::from(name.starts_with("wal-"));
        }
        assert_eq!(wals, 1, "exactly one live WAL");
        assert!(
            std::fs::read_dir(&dir).unwrap().count() < files_before,
            "orphans from the crashed compaction were removed"
        );
    }

    #[test]
    fn empty_wal_cold_start_is_a_clean_empty_store() {
        let dir = durable::unique_dir("store-cold");
        let _guard = durable::DirGuard::new(dir.clone());
        {
            let store = CosmosStore::durable(&dir, 10, 1).unwrap();
            assert_eq!(store.record_count(), 0);
            assert_eq!(store.boot_id(), 0);
        }
        // Reopen with nothing ever appended: still empty, still sane.
        let mut store = CosmosStore::durable(&dir, 10, 1).unwrap();
        assert_eq!(store.record_count(), 0);
        assert_eq!(store.partial_count(), 0);
        assert!(store.epoch() > 0, "recovery still advances the epoch");
        assert!(store.append(S, &[rec(1)], SimTime(0)), "and appends work");
    }

    #[test]
    fn retire_tombstones_segments_and_survives_recovery() {
        let dir = durable::unique_dir("store-retire");
        let _guard = durable::DirGuard::new(dir.clone());
        {
            let mut store = CosmosStore::durable(&dir, 10, 1).unwrap();
            // Three full windows, one record per minute, extent-aligned
            // with the windows (cap 10 = one extent per window).
            let batch: Vec<ProbeRecord> = (0..30).map(|i| rec(i * 60_000_000)).collect();
            assert!(store.append(S, &batch, SimTime(0)));
            store.checkpoint().unwrap();
            let segs = store.durability_stats().unwrap().segments;
            assert!(segs >= 2, "sealed extents became segments");
            // Window-aligned horizon: first window fully expired.
            store.retire_before(SimTime(W));
            assert!(
                store.durability_stats().unwrap().tombstones > 0,
                "retired segments are tombstoned"
            );
            store.checkpoint().unwrap();
            assert_eq!(store.durability_stats().unwrap().tombstones, 0, "GC ran");
        }
        let store = CosmosStore::durable(&dir, 10, 1).unwrap();
        assert_eq!(all(&store).len(), 20, "retired records stay gone");
        assert_eq!(store.partial_count(), 2, "retired window stays retired");
        assert_eq!(
            store
                .merged_window_aggregate(SimTime(0), SimTime(W))
                .record_count,
            0
        );
        assert_eq!(
            store
                .merged_window_aggregate(SimTime(W), SimTime(3 * W))
                .record_count,
            20
        );
    }

    #[test]
    fn wal_io_failure_fails_closed_and_checkpoint_heals() {
        let dir = durable::unique_dir("store-iofail");
        let _guard = durable::DirGuard::new(dir.clone());
        let mut store = CosmosStore::durable(&dir, 10, 1).unwrap();
        assert!(store.append(S, &[rec(1)], SimTime(0)));
        let count_before = store.record_count();
        let epoch_before = store.epoch();
        // A fault burst covering every attempt (1 + 4 retries): the
        // append is refused and nothing — not the extents, not the
        // partials, not the epoch — moves. Fail-closed, not fail-silent.
        store.inject_wal_io_errors(5);
        assert!(!store.append(S, &[rec(2)], SimTime(0)));
        assert!(store.durability_stats().unwrap().failed);
        assert_eq!(store.record_count(), count_before);
        assert_eq!(store.epoch(), epoch_before);
        assert!(!store.append(S, &[rec(3)], SimTime(0)), "stays closed");
        // A checkpoint's rotation to a fresh WAL file heals it.
        store.checkpoint().unwrap();
        assert!(!store.durability_stats().unwrap().failed);
        assert!(store.append(S, &[rec(4)], SimTime(0)), "healed");
        let stats = store.durability_stats().unwrap();
        assert!(stats.io_errors > 0, "errors were counted");
    }

    #[test]
    fn recovery_adopts_epoch_handle_and_salts_window_version() {
        let dir = durable::unique_dir("store-epoch");
        let _guard = durable::DirGuard::new(dir.clone());
        let handle;
        let v_before;
        {
            let mut store = CosmosStore::durable(&dir, 10, 1).unwrap();
            assert!(store.append(S, &[rec(1), rec(2)], SimTime(0)));
            handle = store.epoch_handle();
            v_before = store.window_version(SimTime(0), SimTime(W));
        }
        let seen_by_reader = handle.load(Ordering::Acquire);
        let store = CosmosStore::recover_with(&dir, 10, 1, Some(Arc::clone(&handle))).unwrap();
        // The adopted handle is the same atomic the old readers hold...
        assert!(Arc::ptr_eq(&handle, &store.epoch_handle()));
        // ...and its value moved past everything they could have seen.
        assert!(handle.load(Ordering::Acquire) > seen_by_reader);
        // Same records, same partials — but the fingerprint moved, so no
        // pre-crash ETag can revalidate against the recovered store.
        assert_ne!(
            v_before,
            store.window_version(SimTime(0), SimTime(W)),
            "boot-id salt must move every window fingerprint"
        );
    }

    #[test]
    fn maybe_checkpoint_triggers_on_wal_growth() {
        let dir = durable::unique_dir("store-auto-ckpt");
        let _guard = durable::DirGuard::new(dir.clone());
        let mut store = CosmosStore::durable(&dir, 50_000, 1).unwrap();
        let maybe_checkpoint = |s: &mut CosmosStore| s.maybe_checkpoint_with(WAL_CHECKPOINT_BYTES);
        assert!(!maybe_checkpoint(&mut store).unwrap(), "small WAL: no-op");
        // ~17 MiB of WAL (280k records × 64 B) crosses the threshold.
        let batch: Vec<ProbeRecord> = (0..8_000).map(rec).collect();
        for _ in 0..35 {
            assert!(store.append(S, &batch, SimTime(0)));
        }
        assert!(maybe_checkpoint(&mut store).unwrap(), "big WAL: checkpoint");
        let stats = store.durability_stats().unwrap();
        assert!(stats.wal_bytes < WAL_CHECKPOINT_BYTES, "WAL truncated");
        assert!(stats.segments > 0, "sealed extents persisted");
    }

    /// Asserts `a` (durable, evicting) reads exactly like `b` (in memory):
    /// the same partials, and chunk-for-chunk the same scans over the
    /// whole history, each window, and ranges straddling window bounds.
    fn reads_like(a: &CosmosStore, b: &CosmosStore, windows: u64, what: &str) {
        assert_eq!(held(a), held(b), "{what}: records held");
        assert!(a.partials == b.partials, "{what}: partials differ");
        let mut ranges = vec![(0, u64::MAX)];
        for k in 0..windows {
            ranges.push((k * W, (k + 1) * W));
            ranges.push((k * W + W / 3, (k + 2) * W - 7));
        }
        for (from, to) in ranges {
            let (from, to) = (SimTime(from), SimTime(to));
            let got = a.try_scan_all_window_chunks(from, to).unwrap();
            assert_eq!(
                chunk_vecs(&got),
                chunk_vecs(&b.scan_all_window_chunks(from, to)),
                "{what}: [{from:?}, {to:?})"
            );
        }
    }

    /// Records in the store's extents, resident or evicted.
    fn held(store: &CosmosStore) -> u64 {
        store.streams.values().flatten().map(|e| e.len as u64).sum()
    }

    /// Every segment file of the evicted extents of `store`.
    fn evicted_segments(store: &CosmosStore, dir: &Path) -> Vec<std::path::PathBuf> {
        let evicted = store
            .streams
            .values()
            .flatten()
            .filter(|e| e.records.is_none());
        evicted
            .map(|e| dir.join(format!("seg-{}.dat", e.seg.unwrap())))
            .collect()
    }

    #[test]
    fn evicting_durable_store_reads_like_an_in_memory_reference() {
        let mut services = ServiceMap::new();
        services.register("web", (0..6).map(ServerId)).unwrap();
        let services = Arc::new(services);
        for seed in [7, 8, 9] {
            let dir = durable::unique_dir("store-evict");
            let _guard = durable::DirGuard::new(dir.clone());
            let mut durable = CosmosStore::durable(&dir, 97, 1).unwrap();
            let mut reference = CosmosStore::new(97, 1);
            // Stream 2 is time-sorted, so its straddlers take the on-disk
            // trim; the mixed streams are unsorted and carry stragglers
            // into frozen windows.
            let sorted = StreamName { dc: DcId(2) };
            for (i, (stream, batch)) in mixed_batches(seed).iter().enumerate() {
                let i = i as u64;
                let run: Vec<ProbeRecord> = (0..50).map(|k| rec(i * W / 4 + k * W / 200)).collect();
                for (stream, batch) in [(*stream, batch), (sorted, &run)] {
                    assert!(durable.append(stream, batch, SimTime(0)));
                    assert!(reference.append(stream, batch, SimTime(0)));
                }
                if i % 7 == 6 {
                    durable.checkpoint().unwrap();
                    reference.checkpoint().unwrap();
                }
                if i == 25 {
                    durable.retire_before(SimTime(2 * W));
                    reference.retire_before(SimTime(2 * W));
                }
            }
            let resident = durable.resident_records();
            assert!(
                resident < held(&durable) / 2,
                "seed {seed}: {resident} resident"
            );
            assert_eq!(reference.resident_records(), held(&reference));
            reads_like(&durable, &reference, 12, "live");

            // A late service map refolds evicted extents from disk.
            durable.set_service_map(Arc::clone(&services)).unwrap();
            reference.set_service_map(Arc::clone(&services)).unwrap();
            reads_like(&durable, &reference, 12, "refolded");
            assert_eq!(
                durable.resident_records(),
                resident,
                "a refold evicts nothing back"
            );

            // Recovery streams the segments back; the reference seals
            // where recovery seals the WAL's open extents.
            drop(durable);
            reference.checkpoint().unwrap();
            let mut reopened = CosmosStore::durable(&dir, 97, 1).unwrap();
            reopened.set_service_map(Arc::clone(&services)).unwrap();
            reads_like(&reopened, &reference, 12, "reopened");
            let frozen = reopened.frozen_before();
            for e in reopened.streams.values().flatten() {
                assert_eq!(e.records.is_none(), e.evictable(frozen), "extent {}", e.id);
            }

            // A damaged evicted segment fails the scan and the refold; it
            // never reads short, and a failed refold changes nothing.
            let segs = evicted_segments(&reopened, &dir);
            let mut bytes = std::fs::read(&segs[0]).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x10;
            std::fs::write(&segs[0], &bytes).unwrap();
            let all = (SimTime(0), SimTime(u64::MAX));
            assert!(reopened.try_scan_all_window_chunks(all.0, all.1).is_err());
            let before = reopened.window_version(SimTime(0), SimTime(12 * W));
            assert!(reopened
                .set_service_map(Arc::new(ServiceMap::new()))
                .is_err());
            assert_eq!(before, reopened.window_version(SimTime(0), SimTime(12 * W)));
            assert!(reopened.partials == reference.partials, "unchanged");
            std::fs::remove_file(&segs[1]).unwrap();
            assert!(reopened.try_scan_all_window_chunks(all.0, all.1).is_err());
        }
    }

    /// Seeded batches that take every field anywhere a record may: servers
    /// up to `u32::MAX`, pod, podset and DC ids that change mid-stream
    /// under one server, every kind (payloads up to `u32::MAX`), QoS and
    /// outcome, RTTs up to `u64::MAX`, and any ports.
    fn arbitrary_batches(seed: u64) -> Vec<(StreamName, Vec<ProbeRecord>)> {
        let mut state = seed | 1;
        let mut next = move |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        let mut t = 0;
        (0..60)
            .map(|_| {
                let stream = StreamName {
                    dc: DcId(next(3) as u32),
                };
                let (mut src, mut scope) = (next(40) as u32, next(4) as u32);
                let len = 1 + next(90) as usize;
                let batch = (0..len)
                    .map(|_| {
                        if next(6) == 0 {
                            scope = next(u64::from(u32::MAX) + 1) as u32;
                        }
                        if next(30) == 0 {
                            src = [u32::MAX, next(40) as u32][next(2) as usize];
                        }
                        t += next(W / 50);
                        let dst = [u32::MAX, 0, next(40) as u32][next(3) as usize];
                        let rtt = [u64::MAX, 0, next(u64::MAX)][next(3) as usize];
                        ProbeRecord {
                            ts: SimTime(t - next(t.min(W) + 1)),
                            src: ServerId(src),
                            dst: ServerId(dst),
                            src_pod: PodId(scope),
                            dst_pod: PodId(dst / 2),
                            src_podset: PodsetId(scope / 3),
                            dst_podset: PodsetId(next(5) as u32),
                            src_dc: DcId(scope % 7),
                            dst_dc: DcId(next(3) as u32),
                            kind: match next(3) {
                                0 => ProbeKind::TcpSyn,
                                1 => ProbeKind::TcpPayload(next(u64::from(u32::MAX) + 1) as u32),
                                _ => ProbeKind::Http,
                            },
                            qos: [QosClass::High, QosClass::Low][next(2) as usize],
                            src_port: next(1 << 16) as u16,
                            dst_port: next(1 << 16) as u16,
                            outcome: match next(4) {
                                0 => ProbeOutcome::Timeout,
                                1 => ProbeOutcome::Refused,
                                _ => ProbeOutcome::Success {
                                    rtt: SimDuration::from_micros(rtt),
                                },
                            },
                        }
                    })
                    .collect();
                (stream, batch)
            })
            .collect()
    }

    /// What a whole-history scan must read: each stream's batches in
    /// append order, streams in order.
    fn appended(batches: &[(StreamName, Vec<ProbeRecord>)]) -> Vec<ProbeRecord> {
        let mut by_stream: BTreeMap<StreamName, Vec<ProbeRecord>> = BTreeMap::new();
        for (stream, batch) in batches {
            by_stream
                .entry(*stream)
                .or_default()
                .extend_from_slice(batch);
        }
        by_stream.into_values().flatten().collect()
    }

    #[test]
    fn packed_records_scan_back_as_appended_in_memory_and_after_recovery() {
        for seed in [1, 2, 3] {
            let batches = arbitrary_batches(seed);
            let want = appended(&batches);
            let mut store = CosmosStore::new(37, 1);
            for (stream, batch) in &batches {
                assert!(store.append(*stream, batch, SimTime(0)));
            }
            assert_eq!(all(&store), want, "seed {seed}: in memory");
            assert_eq!(
                chunk_vecs(&store.scan_all_window_chunks(SimTime(0), SimTime(u64::MAX))).concat(),
                want
            );

            // Durable: checkpoints (so frozen extents are evicted and read
            // back from segments) part-way, then a crash and a recovery
            // that re-interns every record it replays or keeps.
            let dir = durable::unique_dir("store-packed");
            let _guard = durable::DirGuard::new(dir.clone());
            {
                let mut durable = CosmosStore::durable(&dir, 37, 1).unwrap();
                for (i, (stream, batch)) in batches.iter().enumerate() {
                    assert!(durable.append(*stream, batch, SimTime(0)));
                    if i % 17 == 16 {
                        durable.checkpoint().unwrap();
                    }
                }
                assert!(durable.resident_records() < durable.record_count());
                assert_eq!(all(&durable), want, "seed {seed}: durable, live");
            }
            let recovered = CosmosStore::durable(&dir, 37, 1).unwrap();
            assert_eq!(all(&recovered), want, "seed {seed}: recovered");
            for k in 0..8 {
                let (from, to) = (SimTime(k * W / 2), SimTime(k * W / 2 + W));
                assert_eq!(chunked(&recovered, from, to), filtered(&store, from, to));
            }
        }
    }

    #[test]
    fn resident_bytes_are_32_a_record_plus_the_tables() {
        let mut store = CosmosStore::new(10, 1);
        assert_eq!(store.resident_bytes(), 0);
        store.append(S, &(0..25).map(rec).collect::<Vec<_>>(), SimTime(0));
        // Two endpoints, one shape, 25 records.
        assert_eq!(store.table_bytes(), 2 * 16 + 32);
        assert_eq!(store.resident_bytes(), 25 * 32 + store.table_bytes());
        let moved = ProbeRecord {
            src_pod: PodId(9),
            ..rec(30)
        };
        store.append(S, &[moved], SimTime(0));
        assert_eq!(
            store.table_bytes(),
            3 * 16 + 32,
            "a new scope is a new endpoint"
        );
    }

    #[test]
    fn frozen_before_is_the_newest_records_window_start() {
        let mut store = CosmosStore::new(10, 1);
        assert_eq!(store.frozen_before(), None);
        store.append(S, &[rec(2 * W + 123)], SimTime(0));
        assert_eq!(store.frozen_before(), Some(SimTime(2 * W)));
        store.append(S, &[rec(5 * W + 9)], SimTime(0));
        assert_eq!(store.frozen_before(), Some(SimTime(5 * W)));
    }
}
