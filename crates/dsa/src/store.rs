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
//! have one read path, [`CosmosStore::scan_all_window_chunks`], which
//! yields borrowed extent sub-slices (investigations, the coverage job,
//! the state digest and every test's rebuild-from-raw reference use it).

use crate::agg::WindowAggregate;
use crate::durable::{
    CheckpointGc, CheckpointPlan, DurabilityStats, DurableLog, SegmentMeta, WalOp,
    WrittenCheckpoint,
};
use parking_lot::Mutex;
use pingmesh_topology::ServiceMap;
use pingmesh_types::{DcId, ProbeRecord, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live WAL bytes at which the background compactor
/// ([`CosmosStore::maybe_checkpoint_with`]) triggers the next checkpoint
/// (every extent written as a segment, replay restarting at the rotated-to
/// WAL). Recovery replays a few of these (see
/// [`CosmosStore::checkpoint_backlogged`]); at measured replay rates (>1M
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

/// What one [`CosmosStore::checkpoint_shared`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPass {
    /// Whether the checkpoint committed; `false` when it was refused as
    /// stale.
    pub committed: bool,
    /// How long it held the store lock: the plan plus the commit.
    pub locked: Duration,
    /// How long its write phase ran with the lock released.
    pub writing: Duration,
}

/// One append-only extent. Not `Clone`: an unsealed extent's records
/// must stay unshared for `append_raw`'s `Arc::get_mut`.
#[derive(Debug)]
struct Extent {
    /// Stable id, increasing in append order within a stream; a
    /// checkpoint plan names the extents it persists by it.
    id: u64,
    /// Shared with a checkpoint plan once sealed (and then never written
    /// again); an unsealed extent is never shared, so appends write
    /// through `Arc::get_mut`.
    records: Arc<Vec<ProbeRecord>>,
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
        !self.records.is_empty() && self.min_ts < to && self.max_ts >= from
    }
}

/// Partial-window readers take 10-min-aligned bounds (job windows are,
/// by construction).
fn debug_assert_aligned(from: SimTime, to: SimTime) {
    let start = |t: SimTime| t.window_start(PARTIAL_WINDOW);
    debug_assert_eq!(start(from), from, "window start must be 10-min aligned");
    debug_assert_eq!(start(to), to, "window end must be 10-min aligned");
}

/// The store.
#[derive(Debug)]
pub struct CosmosStore {
    extent_cap: usize,
    replication: u32,
    streams: BTreeMap<StreamName, Vec<Extent>>,
    /// Ingest-time partial aggregates, keyed by (stream, window start).
    /// Window starts are aligned to [`PARTIAL_WINDOW`].
    partials: BTreeMap<(StreamName, SimTime), WindowAggregate>,
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
    /// Id of the next extent created.
    next_extent: u64,
    /// The newest retention horizon: partials of windows closed before it
    /// are gone and stay gone.
    retired_before: SimTime,
    /// Persistence engine; `None` for a purely in-memory store.
    durable: Option<DurableLog>,
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
            partials: BTreeMap::new(),
            fold_seq: 0,
            partial_versions: BTreeMap::new(),
            service_generation: 0,
            epoch: Arc::new(AtomicU64::new(0)),
            services: None,
            total_records: 0,
            total_bytes: 0,
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
    /// 1. loads the manifest's segments as sealed extents,
    /// 2. replays every WAL file from the manifest's `wal_seq` on, in
    ///    order (appends rebuild extents through the normal
    ///    extent-building path; retires re-drop expired ones), sealing the
    ///    open extents after each file — every file boundary is a plan's
    ///    rotation, where the live store sealed them, so extent boundaries
    ///    come back as they were,
    /// 3. refolds the per-(stream, window) partials from surviving raw
    ///    records — bit-identical to the pre-crash fold because the
    ///    aggregates are order-independent CRDTs — and drops windows
    ///    closed before the persisted retention horizon,
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

        // 1. Segments become sealed extents, in manifest (stream-major,
        // append) order.
        for (meta, records) in recovered.segments {
            let stream = StreamName { dc: DcId(meta.dc) };
            store.total_records += records.len() as u64;
            store.total_bytes += records.iter().map(|r| r.wire_size() as u64).sum::<u64>();
            store.streams.entry(stream).or_default().push(Extent {
                id: store.next_extent,
                records: Arc::new(records),
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
        // retention horizon already closed.
        store.retired_before = SimTime(recovered.retire_hwm);
        if store.total_records > 0 {
            store.refold_partials();
        }

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
    pub fn set_service_map(&mut self, services: Arc<ServiceMap>) {
        self.services = Some(services);
        self.service_generation += 1;
        if self.total_records > 0 {
            self.refold_partials();
        }
        self.epoch.fetch_add(1, Ordering::Release);
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
        if let Some(log) = self.durable.as_mut() {
            let epoch_after = self.epoch.load(Ordering::Acquire) + 1;
            if !log.log_append(stream.dc, batch, t, epoch_after) {
                pingmesh_obs::registry()
                    .counter("pingmesh_dsa_store_rejected_batches_total")
                    .inc();
                return false;
            }
        }
        pingmesh_obs::registry()
            .counter("pingmesh_dsa_store_appended_records_total")
            .add(batch.len() as u64);
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
        self.fold_into_partials(stream, batch);
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
            if extents
                .last()
                .is_none_or(|e| e.sealed || e.records.len() >= cap)
            {
                if let Some(last) = extents.last_mut() {
                    last.sealed = true;
                }
                extents.push(Extent {
                    id: self.next_extent,
                    records: Arc::new(Vec::new()),
                    sealed: false,
                    min_ts: first.ts,
                    max_ts: first.ts,
                    sorted: true,
                    seg: None,
                });
                self.next_extent += 1;
            }
            let e = extents.last_mut().expect("just ensured");
            let (now, later) = rest.split_at((cap - e.records.len()).min(rest.len()));
            let records = Arc::get_mut(&mut e.records).expect("an unsealed extent is never shared");
            for &rec in now {
                if rec.ts < e.max_ts {
                    e.sorted = false;
                }
                e.min_ts = e.min_ts.min(rec.ts);
                e.max_ts = e.max_ts.max(rec.ts);
                records.push(rec);
                self.total_bytes += rec.wire_size() as u64;
            }
            self.total_records += now.len() as u64;
            rest = later;
        }
    }

    /// Folds a just-accepted batch into its window partials. Consecutive
    /// same-window runs share one map lookup (agent batches are nearly
    /// time-ordered, so this is ~one lookup per batch).
    fn fold_into_partials(&mut self, stream: StreamName, batch: &[ProbeRecord]) {
        if batch.is_empty() {
            return;
        }
        let services = self.services.clone();
        let svc = services.as_deref();
        self.fold_seq += 1;
        let mut i = 0;
        while i < batch.len() {
            let ws = batch[i].ts.window_start(PARTIAL_WINDOW);
            let mut j = i + 1;
            while j < batch.len() && batch[j].ts.window_start(PARTIAL_WINDOW) == ws {
                j += 1;
            }
            let agg = self.partials.entry((stream, ws)).or_default();
            for r in &batch[i..j] {
                match svc {
                    Some(s) => agg.fold_with_services(r, s),
                    None => agg.fold(r),
                }
            }
            self.partial_versions.insert((stream, ws), self.fold_seq);
            i = j;
        }
        pingmesh_obs::registry()
            .counter("pingmesh_dsa_ingest_folded_records_total")
            .add(batch.len() as u64);
    }

    /// Rebuilds every partial from the raw extents (used when the
    /// service map arrives after records did, and at recovery). Windows a
    /// retire closed stay closed: a kept extent that straddles the horizon
    /// must not bring their partials back.
    fn refold_partials(&mut self) {
        self.partials.clear();
        self.partial_versions.clear();
        self.fold_seq += 1;
        let seq = self.fold_seq;
        let services = self.services.clone();
        let svc = services.as_deref();
        for (stream, extents) in &self.streams {
            for e in extents {
                for r in e.records.iter() {
                    let ws = r.ts.window_start(PARTIAL_WINDOW);
                    let agg = self.partials.entry((*stream, ws)).or_default();
                    match svc {
                        Some(s) => agg.fold_with_services(r, s),
                        None => agg.fold(r),
                    }
                    self.partial_versions.insert((*stream, ws), seq);
                }
            }
        }
        self.drop_retired_partials();
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

    /// Merges the ingest-time partials covering `[from, to)` across all
    /// streams into one aggregate — O(scopes × windows), no record pass.
    /// Bounds as for [`CosmosStore::partials_in`].
    pub fn merged_window_aggregate(&self, from: SimTime, to: SimTime) -> WindowAggregate {
        let mut out = WindowAggregate::default();
        for part in self.partials_in(from, to) {
            out.merge(part);
        }
        out
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

    /// The raw-record read path: borrowed extent sub-slices that together
    /// hold exactly the records in `[from, to)`, stream by stream
    /// (`BTreeMap` order) and in append order within a stream. Extents
    /// carry time bounds, so whole extents outside the window are skipped
    /// — windows stay O(window), not O(history) — and straddling extents
    /// are trimmed by binary search when time-sorted, otherwise split
    /// into maximal in-window runs. No record is copied.
    pub fn scan_all_window_chunks(&self, from: SimTime, to: SimTime) -> Vec<&[ProbeRecord]> {
        let mut out = Vec::new();
        let (mut scanned, mut skipped) = (0, 0);
        for extents in self.streams.values() {
            let (s, k) = Self::chunks_of(extents, from, to, &mut out);
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
        out
    }

    /// Pushes one stream's in-window chunks; returns how many extents it
    /// (scanned, skipped on their time bounds alone).
    fn chunks_of<'a>(
        extents: &'a [Extent],
        from: SimTime,
        to: SimTime,
        out: &mut Vec<&'a [ProbeRecord]>,
    ) -> (u64, u64) {
        let mut scanned = 0u64;
        let mut skipped = 0u64;
        for e in extents {
            if !e.overlaps(from, to) {
                skipped += 1;
                continue;
            }
            scanned += 1;
            if e.min_ts >= from && e.max_ts < to {
                // Fully contained: the whole extent is in-window.
                out.push(&e.records[..]);
            } else if e.sorted {
                let lo = e.records.partition_point(|r| r.ts < from);
                let hi = e.records.partition_point(|r| r.ts < to);
                if lo < hi {
                    out.push(&e.records[lo..hi]);
                }
            } else {
                // Unsorted straddler: emit maximal in-window runs.
                let mut start = None;
                for (i, r) in e.records.iter().enumerate() {
                    let inside = r.ts >= from && r.ts < to;
                    match (inside, start) {
                        (true, None) => start = Some(i),
                        (false, Some(s)) => {
                            out.push(&e.records[s..i]);
                            start = None;
                        }
                        _ => {}
                    }
                }
                if let Some(s) = start {
                    out.push(&e.records[s..]);
                }
            }
        }
        (scanned, skipped)
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
            let live = extents.iter().filter(|e| !e.records.is_empty());
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
    /// caller sharing the store behind a lock uses
    /// [`Self::checkpoint_shared`], which holds the lock only for the plan
    /// and the commit.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let Some(plan) = self.plan_checkpoint()? else {
            return Ok(());
        };
        self.commit_checkpoint(plan.write()?)?.run();
        Ok(())
    }

    /// Whether a checkpoint is due: the live WAL holds `threshold` bytes
    /// (production: [`WAL_CHECKPOINT_BYTES`]), or the WAL is failed-closed
    /// and a checkpoint would heal it. Always `false` for in-memory
    /// stores.
    pub fn checkpoint_due(&self, threshold: u64) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|log| log.checkpoint_due(threshold))
    }

    /// Whether appends have run so far ahead of the checkpoints that a
    /// caller sharing the store should hold them until the next plan
    /// rotates the WAL: it holds
    /// [`WAL_BACKLOG_CHECKPOINTS`](crate::durable::WAL_BACKLOG_CHECKPOINTS)
    /// times `threshold`. This bounds what recovery replays. Always
    /// `false` for in-memory stores.
    pub fn checkpoint_backlogged(&self, threshold: u64) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|log| log.checkpoint_backlogged(threshold))
    }

    /// Checkpoints inline when [`Self::checkpoint_due`]. Returns whether a
    /// checkpoint ran.
    pub fn maybe_checkpoint_with(&mut self, threshold: u64) -> io::Result<bool> {
        let due = self.checkpoint_due(threshold);
        if due {
            self.checkpoint()?;
        }
        Ok(due)
    }

    /// Phase 1 of a checkpoint (hold the lock): rotates the WAL to a fresh
    /// file — freezing the old ones, and healing a failed-closed WAL —
    /// then seals each stream's open extent, and takes an owning plan in
    /// one pass over the extents: those with a segment are kept, those
    /// without become fresh segments (their records shared, not copied).
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
        for (stream, extents) in &self.streams {
            for e in extents {
                let meta = SegmentMeta {
                    id: e.seg.unwrap_or(0),
                    dc: stream.dc.0,
                    count: e.records.len() as u32,
                    sorted: e.sorted,
                    min_ts: e.min_ts.as_micros(),
                    max_ts: e.max_ts.as_micros(),
                };
                match e.seg {
                    Some(_) => keep.push(meta),
                    None => fresh.push((e.id, meta, Arc::clone(&e.records))),
                }
            }
        }
        let epoch = self.epoch.load(Ordering::Acquire);
        Ok(Some(log.plan_checkpoint(keep, fresh, epoch)))
    }

    /// Seals each stream's open extent — the only unsealed one, its last —
    /// and gives back its spare capacity: the `Vec` is still unshared, and
    /// a plan is about to share it for good.
    fn seal_open_extents(&mut self) {
        for e in self.streams.values_mut().filter_map(|x| x.last_mut()) {
            if !e.sealed {
                e.sealed = true;
                Arc::get_mut(&mut e.records)
                    .expect("an unsealed extent is never shared")
                    .shrink_to_fit();
            }
        }
    }

    /// Phase 3 of a checkpoint (hold the lock; O(fresh extents)): commits
    /// the written files unless the plan went stale (a recovery, or
    /// another plan, since it was taken), then stamps each new segment id
    /// onto its extent. An extent retired while the files were written
    /// has its new segment tombstoned instead. Run the returned
    /// [`CheckpointGc`] after releasing the lock.
    pub fn commit_checkpoint(&mut self, written: WrittenCheckpoint) -> io::Result<CheckpointGc> {
        let Some(log) = self.durable.as_mut() else {
            return Err(io::Error::other("commit_checkpoint on an in-memory store"));
        };
        let (gc, assigned) = log.commit_checkpoint(written)?;
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
        Ok(gc)
    }

    /// Forces the WAL to stable storage inline, zeroing the flush lag. A
    /// no-op for in-memory stores. A caller sharing the store behind a
    /// lock uses [`Self::sync_wal_shared`] instead.
    pub fn sync_wal(&mut self) -> io::Result<()> {
        match self.durable.as_mut() {
            Some(log) => log.sync(),
            None => Ok(()),
        }
    }

    /// Checkpoints a store shared behind `store` when
    /// [`Self::checkpoint_due`] at `threshold`, holding the lock only to
    /// plan and to commit: the segments, the fsyncs and the garbage
    /// collection run with it released, beside appends and
    /// readers. `Ok(None)` when no checkpoint was due. Callers serialise
    /// passes; two writes in flight at once make the older one stale.
    pub fn checkpoint_shared(
        store: &Mutex<CosmosStore>,
        threshold: u64,
    ) -> io::Result<Option<CheckpointPass>> {
        let (plan, plan_held) = {
            let mut store = store.lock();
            let locked = Instant::now();
            if !store.checkpoint_due(threshold) {
                return Ok(None);
            }
            (store.plan_checkpoint()?, locked.elapsed())
        };
        let Some(plan) = plan else {
            return Ok(None);
        };
        let writing = Instant::now();
        let written = plan.write()?;
        let writing = writing.elapsed();
        let (gc, commit_held) = {
            let mut store = store.lock();
            let locked = Instant::now();
            (store.commit_checkpoint(written)?, locked.elapsed())
        };
        let committed = gc.committed();
        gc.run();
        Ok(Some(CheckpointPass {
            committed,
            locked: plan_held + commit_held,
            writing,
        }))
    }

    /// A group commit on a store shared behind `store`: when at least
    /// `bytes` acknowledged WAL bytes are unsynced, or some have waited
    /// `lag_us`, fdatasyncs them through cloned handles with the lock
    /// released, then clears only the bytes that sync covered (appends
    /// that land meanwhile stay unsynced). Returns whether a sync ran.
    pub fn sync_wal_shared(
        store: &Mutex<CosmosStore>,
        bytes: u64,
        lag_us: u64,
    ) -> io::Result<bool> {
        let sync = {
            let store = store.lock();
            let Some(log) = store.durable.as_ref() else {
                return Ok(false);
            };
            let unsynced = log.unsynced_bytes();
            if unsynced < bytes && (unsynced == 0 || log.flush_lag_us() < lag_us) {
                return Ok(false);
            }
            log.begin_sync()?
        };
        let Some(sync) = sync else {
            return Ok(false);
        };
        sync.run()?;
        if let Some(log) = store.lock().durable.as_mut() {
            log.finish_sync(&sync);
        }
        Ok(true)
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
mod tests {
    use super::*;
    use crate::durable;
    use pingmesh_types::{
        PodId, PodsetId, ProbeKind, ProbeOutcome, QosClass, ServerId, SimDuration,
    };

    fn rec(ts: u64) -> ProbeRecord {
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
        chunks.into_iter().flatten().copied().collect()
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
        let chunks = store.scan_all_window_chunks(SimTime(0), SimTime(u64::MAX));
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], [rec(1)]);
        assert_eq!(chunks[1], [in_dc1(2), in_dc1(3)]);
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
    fn windowed_scans_skip_nonoverlapping_sealed_extents() {
        let mut store = CosmosStore::new(10, 1);
        // 5 extents of 10 records, 1 s apart: extent k covers [10k, 10k+9] s.
        let batch: Vec<ProbeRecord> = (0..50).map(|i| rec(i * 1_000_000)).collect();
        store.append(S, &batch, SimTime(0));
        assert_eq!(extent_count(&store), 5);
        // Window [20 s, 30 s): only extent 2 overlaps.
        let (from, to) = (SimTime(20_000_000), SimTime(30_000_000));
        let mut chunks = Vec::new();
        let (scanned, skipped) = CosmosStore::chunks_of(&store.streams[&S], from, to, &mut chunks);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10);
        assert_eq!(scanned, 1, "exactly one extent scanned");
        assert_eq!(skipped, 4, "the four non-overlapping extents skipped");
        assert_eq!(chunks, store.scan_all_window_chunks(from, to));
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
        store.set_service_map(Arc::new(services));
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
        store.set_service_map(Arc::new(services));
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
        store.set_service_map(Arc::new(services));
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
