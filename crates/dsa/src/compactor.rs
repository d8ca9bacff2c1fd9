//! The background durability loop of a durable [`CosmosStore`] shared
//! behind a lock: group commit, checkpoint scheduling and append
//! backpressure. One thread fsyncs the WAL, another checkpoints it, so a
//! long checkpoint never holds up a sync. Neither holds the lock for disk
//! IO: a sync fsyncs cloned WAL handles, and a checkpoint locks only to
//! plan and to commit. An appender hands its guard to
//! [`Compactor::after_append`].

use crate::store::CosmosStore;
use parking_lot::{Mutex, MutexGuard};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Group commit: fsync the WAL once this many acknowledged bytes sit
/// unsynced, so one sync amortizes across many appends.
const GROUP_COMMIT_BYTES: u64 = 4 * 1024 * 1024;

/// Group commit: the crash exposure bound. No append passes
/// [`Compactor::after_append`] while the oldest unsynced acknowledged byte
/// is older than this (µs); the syncer syncs at half of it, so only a sync
/// that stalls makes an appender wait.
const GROUP_COMMIT_LAG_US: u64 = 500_000;

/// How often each thread wakes unasked to check the WAL (one lock
/// acquisition and a stat read).
const COMPACTOR_POLL: Duration = Duration::from_millis(20);

/// The longest an appender waits out a backlog: its records are already
/// logged, and only a loop that fails pass after pass gets this far behind.
const BACKLOG_WAIT_MAX: Duration = Duration::from_secs(5);

/// What both threads and every appender share.
struct Shared {
    stop: AtomicBool,
    /// Live WAL bytes that make a checkpoint due.
    threshold: AtomicU64,
    /// Held across each checkpoint pass and by [`Compactor::pause`].
    pass: Mutex<()>,
    /// Notified after every pass of either thread.
    progress: (std::sync::Mutex<()>, Condvar),
}

/// The background durability loop of one shared durable store: stopped,
/// and its threads joined, by [`Compactor::stop`] or on drop.
pub struct Compactor {
    shared: Arc<Shared>,
    syncer: Thread,
    checkpointer: Thread,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Compactor {
    /// Starts the loop over `store`, checkpointing at
    /// [`WAL_CHECKPOINT_BYTES`](crate::store::WAL_CHECKPOINT_BYTES).
    /// `None`, and no thread, for an in-memory store.
    pub fn start(store: &Arc<Mutex<CosmosStore>>) -> Option<Arc<Compactor>> {
        store.lock().durable.as_ref()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            threshold: AtomicU64::new(crate::store::WAL_CHECKPOINT_BYTES),
            pass: Mutex::new(()),
            progress: (std::sync::Mutex::new(()), Condvar::new()),
        });
        let s = Arc::clone(store);
        let syncer = spawn(&shared, move |_| {
            let _ = sync_pass(&s, GROUP_COMMIT_BYTES, GROUP_COMMIT_LAG_US / 2);
        });
        let s = Arc::clone(store);
        let checkpointer = spawn(&shared, move |shared| {
            let _pass = shared.pass.lock();
            let _ = checkpoint_pass(&s, shared.threshold.load(Ordering::SeqCst));
        });
        Some(Arc::new(Compactor {
            shared,
            syncer: syncer.thread().clone(),
            checkpointer: checkpointer.thread().clone(),
            threads: Mutex::new(vec![syncer, checkpointer]),
        }))
    }

    /// The tail of an acknowledged append, handed its guard: reads both
    /// bounds under that hold and releases it. Wakes the syncer once 4 MiB
    /// sit unsynced. While an acknowledged byte has waited 500 ms or the
    /// live WAL holds a backlog of checkpoints, waits for the loop to catch
    /// up (or stop, or for 5 s), so appends cannot outrun it.
    pub fn after_append(&self, store: MutexGuard<'_, CosmosStore>) {
        let threshold = self.shared.threshold.load(Ordering::SeqCst);
        let log = store.durable.as_ref();
        let sync_due = log.is_some_and(|log| log.unsynced_bytes() >= GROUP_COMMIT_BYTES);
        let behind = backlogged(&store, threshold);
        let mutex = MutexGuard::mutex(&store);
        drop(store);
        if sync_due {
            self.syncer.unpark();
        }
        if !behind {
            return;
        }
        let started = Instant::now();
        let (lock, progress) = &self.shared.progress;
        while !self.shared.stop.load(Ordering::SeqCst)
            && started.elapsed() < BACKLOG_WAIT_MAX
            && backlogged(&mutex.lock(), threshold)
        {
            self.syncer.unpark();
            self.checkpointer.unpark();
            let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
            let _ = progress.wait_timeout(guard, COMPACTOR_POLL);
        }
        pingmesh_obs::registry()
            .histogram("pingmesh_realmode_upload_backlog_wait_us")
            .record_wall(started.elapsed());
    }

    /// Holds off checkpoint passes while the guard lives, after the one in
    /// flight finishes. A simulated crash takes it, so it never lands
    /// between a live checkpoint's phases (a real crash stops the loop with
    /// everything else).
    pub fn pause(&self) -> MutexGuard<'_, ()> {
        self.shared.pass.lock()
    }

    /// Sets the live WAL bytes that make a checkpoint due. A test hook:
    /// other crates' tests reach it through the `test-hooks` feature.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn set_threshold(&self, bytes: u64) {
        self.shared.threshold.store(bytes, Ordering::SeqCst);
    }

    /// Stops both threads and joins them. After this nothing syncs or
    /// checkpoints the store, and [`Self::after_append`] no longer waits.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.syncer.unpark();
        self.checkpointer.unpark();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A thread that runs `pass` until stopped, parked between passes, waking
/// every waiting appender after each.
fn spawn(shared: &Arc<Shared>, mut pass: impl FnMut(&Shared) + Send + 'static) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        while !shared.stop.load(Ordering::SeqCst) {
            pass(&shared);
            shared.progress.1.notify_all();
            std::thread::park_timeout(COMPACTOR_POLL);
        }
    })
}

/// Whether an appender should wait for the loop: see
/// [`Compactor::after_append`].
fn backlogged(store: &CosmosStore, threshold: u64) -> bool {
    store.durable.as_ref().is_some_and(|log| {
        log.flush_lag_us() >= GROUP_COMMIT_LAG_US || log.checkpoint_backlogged(threshold)
    })
}

/// One checkpoint pass: a checkpoint when one is due at `threshold`,
/// locked only to plan and to commit. Returns whether one committed (not
/// when the plan went stale: callers serialise passes). A failed pass
/// leaves a failed-closed WAL at worst, which is always due, so the next
/// pass retries the heal.
fn checkpoint_pass(store: &Mutex<CosmosStore>, threshold: u64) -> io::Result<bool> {
    let (plan, plan_held) = {
        let mut store = store.lock();
        let locked = Instant::now();
        if !store.checkpoint_due(threshold) {
            return Ok(false);
        }
        let Some(plan) = store.plan_checkpoint()? else {
            return Ok(false);
        };
        (plan, locked.elapsed())
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
    if committed {
        // How long this checkpoint kept appends and readers out of the
        // store, and how long it wrote beside them.
        let registry = pingmesh_obs::registry();
        registry
            .counter("pingmesh_realmode_background_checkpoints_total")
            .inc();
        registry
            .histogram("pingmesh_store_checkpoint_lock_held_us")
            .record_wall(plan_held + commit_held);
        registry
            .histogram("pingmesh_store_checkpoint_write_us")
            .record_wall(writing);
    }
    Ok(committed)
}

/// One group-commit pass: when `bytes` acknowledged WAL bytes are
/// unsynced, or some have waited `lag_us`, fdatasyncs them with the lock
/// released, then clears only the bytes that sync covered. Returns
/// whether a sync ran.
fn sync_pass(store: &Mutex<CosmosStore>, bytes: u64, lag_us: u64) -> io::Result<bool> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::rec;
    use crate::store::StreamName;
    use crate::{unique_dir, DirGuard};
    use pingmesh_types::{DcId, ProbeRecord};

    const CAP: usize = 10;

    /// `n` records of stream 0, one a second from `from` µs.
    fn batch(from: u64, n: u64) -> Vec<ProbeRecord> {
        (0..n).map(|i| rec(from + i * 1_000_000)).collect()
    }

    fn append(store: &mut CosmosStore, records: &[ProbeRecord]) {
        let t = records.iter().map(|r| r.ts).max().unwrap();
        assert!(store.append(StreamName { dc: DcId(0) }, records, t));
    }

    #[test]
    fn append_path_never_compacts_inline() {
        let dir = unique_dir("compactor-inline");
        let _guard = DirGuard::new(dir.clone());
        let store = Arc::new(Mutex::new(CosmosStore::durable(&dir, CAP, 1).unwrap()));
        let c = Compactor::start(&store).expect("durable store");
        // With the loop stopped, nothing else may checkpoint; the threshold
        // is small enough that appends alone would have forced several
        // inline checkpoints under the old behaviour.
        c.stop();
        c.set_threshold(4 * 1024);
        let checkpoints = || store.lock().durability_stats().unwrap().checkpoints;
        // Opening the store may commit a recovery checkpoint of its own;
        // measure append-time checkpoints against this baseline.
        let base = checkpoints();
        for i in 0..40u64 {
            let mut guard = store.lock();
            append(&mut guard, &batch(i * 50_000_000, 50));
            c.after_append(guard);
        }
        let stats = store.lock().durability_stats().unwrap();
        assert!(
            stats.wal_bytes > 4 * 1024,
            "the WAL outgrew the threshold ({} bytes)",
            stats.wal_bytes
        );
        assert_eq!(
            stats.checkpoints, base,
            "no append may pay for a checkpoint — that is the background \
             compactor's job"
        );
        assert_eq!(store.lock().record_count(), 2000);
        // The work was deferred, not dropped: a direct pass performs
        // exactly the checkpoint the appends never ran.
        assert!(checkpoint_pass(&store, 4 * 1024).unwrap());
        assert_eq!(checkpoints(), base + 1);
        assert_eq!(
            store.lock().record_count(),
            2000,
            "compaction loses nothing"
        );
    }

    #[test]
    fn a_failed_write_leaves_the_frozen_bytes_unsynced_until_a_group_commit() {
        let dir = unique_dir("phases-failed");
        let _guard = DirGuard::new(dir.clone());
        let store = Mutex::new(CosmosStore::durable(&dir, CAP, 1).unwrap());
        append(&mut store.lock(), &batch(0, 25));
        let before = store.lock().durability_stats().unwrap();
        assert!(before.unsynced_bytes > 0);

        // The write phase cannot create its first segment: a directory
        // holds the name (no checkpoint has reserved an id yet). The plan
        // has rotated the WAL; the bytes it froze still count.
        let next = before.wal_seq + 1;
        std::fs::create_dir(dir.join("seg-0.dat")).unwrap();
        assert!(checkpoint_pass(&store, 0).is_err());
        let after = store.lock().durability_stats().unwrap();
        assert_eq!(after.wal_seq, next, "the plan rotated");
        assert_eq!(after.unsynced_bytes, before.unsynced_bytes);
        assert!(after.flush_lag_us > 0 && after.flush_lag_us >= before.flush_lag_us);

        // A group commit covers the frozen file, and a later checkpoint
        // commits; nothing was lost.
        assert!(sync_pass(&store, 1, u64::MAX).unwrap());
        let synced = store.lock().durability_stats().unwrap();
        assert_eq!((synced.unsynced_bytes, synced.flush_lag_us), (0, 0));
        append(&mut store.lock(), &batch(25_000_000, 10));
        assert!(checkpoint_pass(&store, 0).unwrap());
        drop(store);
        let recovered = CosmosStore::durable(&dir, CAP, 1).unwrap();
        assert_eq!(recovered.record_count(), 35);
    }

    #[test]
    fn an_in_memory_store_starts_no_loop() {
        let store = Arc::new(Mutex::new(CosmosStore::with_defaults()));
        assert!(Compactor::start(&store).is_none());
    }
}
