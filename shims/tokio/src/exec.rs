//! The executor core: a global pool of worker threads polling tasks from a
//! shared injector queue, with a wake-coalescing per-task state machine.
//!
//! The workers are the runtime's only threads. A worker with nothing to
//! run takes the single *driver role*: it blocks in `epoll_wait` until a
//! socket edge, an unpark or the earliest timer deadline, fires the due
//! timers, wakes what it harvested without notifying anyone, and runs
//! the first woken task itself — a readiness event runs on the thread
//! that harvested it. Before it gives up the role to run that task it
//! notifies one sleeping worker, which takes the role over, so a task
//! that blocks its thread (on the store lock, on a group commit) never
//! stalls the other sockets.
//!
//! A wake from anywhere else — another worker's task, a foreign thread —
//! notifies a sleeping worker, or, when none sleeps, unparks the driver.

use crate::{reactor, timer};
use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

// Task states. Wakes during RUNNING move to NOTIFIED so the worker re-polls
// instead of racing a concurrent re-schedule.
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

pub(crate) struct Task {
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    aborted: AtomicBool,
    on_cancel: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        schedule(self.clone());
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or finished: nothing to do.
                _ => return,
            }
        }
    }
}

struct State {
    queue: VecDeque<Arc<Task>>,
    /// Workers waiting on the condvar, and how many of them have been
    /// notified but have not yet woken.
    sleeping: usize,
    notified: usize,
    /// Some worker holds the driver role.
    driving: bool,
    /// The driver is in (or about to enter) `epoll_wait`, until this
    /// deadline (`None`: no timer pending).
    parked: Option<Option<Instant>>,
    /// An unpark byte has been written during the current park.
    unparked: bool,
}

struct Pool {
    state: Mutex<State>,
    available: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        queue: VecDeque::new(),
        sleeping: 0,
        notified: 0,
        driving: false,
        parked: None,
        unparked: false,
    }),
    available: Condvar::new(),
};

/// Condvar notifies plus unpark writes, for `tokio::diag::wakeups_sent`.
static WAKEUPS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn wakeups_sent() -> u64 {
    WAKEUPS.load(Ordering::Relaxed)
}

thread_local! {
    /// Set while this thread, as driver, wakes what it harvested: those
    /// tasks are queued for it to run, and nobody is notified.
    static HARVESTING: Cell<bool> = const { Cell::new(false) };
}

fn lock() -> MutexGuard<'static, State> {
    // Held only by the pool's own bookkeeping, never across a task poll.
    POOL.state
        .lock()
        .expect("the pool lock is never held across a panic")
}

impl State {
    /// Notifies one sleeping worker not already on its way; false if
    /// there is none.
    fn notify_one(&mut self) -> bool {
        if self.sleeping == self.notified {
            return false;
        }
        self.notified += 1;
        WAKEUPS.fetch_add(1, Ordering::Relaxed);
        POOL.available.notify_one();
        true
    }

    /// Gets a parked driver out of `epoll_wait` (at most one byte per
    /// park).
    fn unpark(&mut self) {
        if self.parked.is_some() && !self.unparked {
            self.unparked = true;
            WAKEUPS.fetch_add(1, Ordering::Relaxed);
            reactor::unpark();
        }
    }
}

fn schedule(task: Arc<Task>) {
    let mut st = lock();
    st.queue.push_back(task);
    if !HARVESTING.get() && !st.notify_one() {
        st.unpark();
    }
}

/// A timer entry that became the earliest: a driver parked past `at`
/// must get up sooner.
pub(crate) fn earlier_deadline(at: Instant) {
    let mut st = lock();
    let later = match st.parked {
        Some(Some(until)) => at < until,
        Some(None) => true,
        None => false,
    };
    if later {
        st.unpark();
    }
}

pub(crate) fn ensure_workers() {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        // One runnable worker per core: a second runnable thread per core
        // only adds switches. The floor of two is the hand-off's other
        // worker.
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8);
        for i in 0..n {
            std::thread::Builder::new()
                .name(format!("tokio-shim-worker-{i}"))
                .spawn(worker_loop)
                .expect("spawn worker thread");
        }
    });
}

fn worker_loop() {
    let mut wakers = Vec::new();
    let mut st = lock();
    loop {
        let task = if let Some(task) = st.queue.pop_front() {
            // Work is left, or nobody watches the sockets: pass it on.
            if !st.queue.is_empty() || !st.driving {
                st.notify_one();
            }
            task
        } else if !st.driving {
            st.driving = true;
            let task;
            (st, task) = drive(st, &mut wakers);
            task
        } else {
            st.sleeping += 1;
            while st.notified == 0 {
                st = POOL
                    .available
                    .wait(st)
                    .expect("the pool lock is never held across a panic");
            }
            st.notified -= 1;
            st.sleeping -= 1;
            continue;
        };
        drop(st);
        // The spawn wrapper catches user panics per-poll; this outer guard
        // only protects the worker from bugs in the shim itself.
        let _ = catch_unwind(AssertUnwindSafe(|| run_task(task)));
        st = lock();
    }
}

/// The driver role, entered with the lock held: turns the reactor and
/// fires timers until something is runnable, then gives the role up and
/// returns the first runnable task for this worker to run, with a
/// sleeping worker notified to drive in its place.
fn drive(
    mut st: MutexGuard<'static, State>,
    wakers: &mut Vec<Waker>,
) -> (MutexGuard<'static, State>, Arc<Task>) {
    loop {
        if let Some(task) = st.queue.pop_front() {
            st.driving = false;
            st.notify_one();
            return (st, task);
        }
        // Read under the pool lock: a timer inserted after this read
        // finds `parked` set and unparks.
        let until = timer::next_deadline();
        let timeout_ms = until.map_or(-1, |at| {
            let ns = at.saturating_duration_since(Instant::now()).as_nanos();
            i32::try_from(ns.div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        st.parked = Some(until);
        drop(st);
        reactor::turn(timeout_ms, wakers);
        timer::fire_due(Instant::now(), wakers);
        st = lock();
        st.parked = None;
        st.unparked = false;
        if wakers.is_empty() {
            continue;
        }
        drop(st);
        HARVESTING.set(true);
        for w in wakers.drain(..) {
            w.wake();
        }
        HARVESTING.set(false);
        st = lock();
    }
}

fn run_task(task: Arc<Task>) {
    task.state.store(RUNNING, Ordering::Release);
    loop {
        if task.aborted.load(Ordering::Acquire) {
            *task.future.lock().unwrap() = None;
            task.state.store(DONE, Ordering::Release);
            if let Some(cb) = task.on_cancel.lock().unwrap().take() {
                cb();
            }
            return;
        }
        let waker = Waker::from(task.clone());
        let mut cx = Context::from_waker(&waker);
        let mut slot = task.future.lock().unwrap();
        let Some(fut) = slot.as_mut() else {
            task.state.store(DONE, Ordering::Release);
            return;
        };
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                *slot = None;
                drop(slot);
                task.state.store(DONE, Ordering::Release);
                return;
            }
            Poll::Pending => {
                drop(slot);
                if task
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
                // A wake arrived while polling (NOTIFIED): poll again.
                task.state.store(RUNNING, Ordering::Release);
            }
        }
    }
}

/// Error returned by [`JoinHandle`] when a task panicked or was aborted.
pub struct JoinError {
    panicked: bool,
}

impl JoinError {
    /// True if the task panicked (as opposed to being aborted).
    pub fn is_panic(&self) -> bool {
        self.panicked
    }

    /// True if the task was aborted before completing.
    pub fn is_cancelled(&self) -> bool {
        !self.panicked
    }
}

impl std::fmt::Debug for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.panicked {
            write!(f, "JoinError::Panic")
        } else {
            write!(f, "JoinError::Cancelled")
        }
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.panicked {
            write!(f, "task panicked")
        } else {
            write!(f, "task was cancelled")
        }
    }
}

impl std::error::Error for JoinError {}

struct JoinInner<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
    finished: bool,
}

pub(crate) struct JoinState<T> {
    inner: Mutex<JoinInner<T>>,
}

impl<T> JoinState<T> {
    fn new() -> Self {
        JoinState {
            inner: Mutex::new(JoinInner {
                result: None,
                waker: None,
                finished: false,
            }),
        }
    }

    fn complete(&self, r: Result<T, JoinError>) {
        let mut g = self.inner.lock().unwrap();
        if g.finished {
            return;
        }
        g.finished = true;
        g.result = Some(r);
        let waker = g.waker.take();
        drop(g);
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Owned handle to a spawned task; awaiting it yields the task's output.
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
    task: Arc<Task>,
}

impl<T> JoinHandle<T> {
    /// Requests cancellation: the task's future is dropped at the next
    /// scheduling point and `await`ing the handle yields a cancelled error.
    pub fn abort(&self) {
        self.task.aborted.store(true, Ordering::Release);
        self.task.wake_by_ref();
    }

    /// True once the task has produced a result (or was cancelled).
    pub fn is_finished(&self) -> bool {
        self.state.inner.lock().unwrap().finished
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut g = self.state.inner.lock().unwrap();
        if let Some(r) = g.result.take() {
            return Poll::Ready(r);
        }
        if g.finished {
            // Polled again after the result was taken.
            return Poll::Ready(Err(JoinError { panicked: false }));
        }
        g.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Spawns a future onto the global worker pool.
pub fn spawn<F>(f: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    ensure_workers();
    let state = Arc::new(JoinState::new());
    let on_ok = state.clone();
    let mut inner = Box::pin(f);
    let wrapper = std::future::poll_fn(move |cx| {
        match catch_unwind(AssertUnwindSafe(|| inner.as_mut().poll(cx))) {
            Ok(Poll::Pending) => Poll::Pending,
            Ok(Poll::Ready(v)) => {
                on_ok.complete(Ok(v));
                Poll::Ready(())
            }
            Err(_) => {
                on_ok.complete(Err(JoinError { panicked: true }));
                Poll::Ready(())
            }
        }
    });
    let on_cancel = state.clone();
    let task = Arc::new(Task {
        future: Mutex::new(Some(Box::pin(wrapper))),
        state: AtomicU8::new(SCHEDULED),
        aborted: AtomicBool::new(false),
        on_cancel: Mutex::new(Some(Box::new(move || {
            on_cancel.complete(Err(JoinError { panicked: false }));
        }))),
    });
    schedule(task.clone());
    JoinHandle { state, task }
}

struct Parker {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        *self.ready.lock().unwrap() = true;
        self.cv.notify_one();
    }
}

/// Drives a future to completion on the calling thread; spawned tasks run
/// on the global worker pool.
pub fn block_on<F: Future>(f: F) -> F::Output {
    ensure_workers();
    let parker = Arc::new(Parker {
        ready: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(parker.clone());
    let mut cx = Context::from_waker(&waker);
    let mut f = std::pin::pin!(f);
    loop {
        match f.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => {
                let mut ready = parker.ready.lock().unwrap();
                while !*ready {
                    ready = parker.cv.wait(ready).unwrap();
                }
                *ready = false;
            }
        }
    }
}
