//! The readiness reactor: one epoll instance, turned by whichever
//! worker holds the driver role (see `exec`), waking the task parked on
//! whichever socket direction became ready.
//!
//! A socket is registered once, edge-triggered and for both directions,
//! when it is wrapped in [`Registered`], and deregistered when that
//! wrapper drops — before the descriptor closes, so a stale event can
//! never name a reused fd (tokens are never reused either). An edge is
//! only delivered on a *change* to ready, so the rule everywhere is
//! try the system call first and park only on `WouldBlock`; the
//! per-direction `ready` bit exists solely to close the window between
//! that `WouldBlock` and the waker being stored.
//!
//! A driver parked in `epoll_wait` is interrupted by one byte written to
//! a nonblocking socket pair whose read end sits in the same epoll set
//! under a token of its own.

use crate::sys;
use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::task::{Context, Poll, Waker};

/// Which half of a socket an operation waits on.
#[derive(Clone, Copy)]
pub(crate) enum Direction {
    Read,
    Write,
}

#[derive(Default)]
struct Slot {
    /// Set by the driver on an edge, cleared by the task before each
    /// attempt. SeqCst throughout; the waker mutex would also order it.
    ready: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

impl Slot {
    /// Driver side: publish the edge, then hand back whoever is parked.
    fn set_ready(&self) -> Option<Waker> {
        self.ready.store(true, Ordering::SeqCst);
        self.waker.lock().unwrap().take()
    }
}

#[derive(Default)]
struct ScheduledIo {
    read: Slot,
    write: Slot,
}

/// The unpark pair's token; socket tokens count up from 0 and never
/// reach it.
const UNPARK: u64 = u64::MAX;

struct Reactor {
    epoll: OwnedFd,
    table: Mutex<HashMap<u64, Arc<ScheduledIo>>>,
    next_token: AtomicU64,
    /// Written by [`unpark`], drained by [`turn`].
    unpark_tx: UnixStream,
    unpark_rx: UnixStream,
}

fn reactor() -> io::Result<&'static Reactor> {
    static REACTOR: OnceLock<Reactor> = OnceLock::new();
    if let Some(r) = REACTOR.get() {
        return Ok(r);
    }
    let (unpark_tx, unpark_rx) = UnixStream::pair()?;
    unpark_tx.set_nonblocking(true)?;
    unpark_rx.set_nonblocking(true)?;
    let epoll = sys::create()?;
    sys::add(&epoll, unpark_rx.as_fd(), UNPARK)?;
    // Of two racing first users, one instance is kept; the other's
    // descriptors close with it.
    let _ = REACTOR.set(Reactor {
        epoll,
        table: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(0),
        unpark_tx,
        unpark_rx,
    });
    Ok(REACTOR.get().expect("set above"))
}

/// Returns from `epoll_wait`, counted for `tokio::diag::driver_parks`.
static PARKS: AtomicU64 = AtomicU64::new(0);

/// Number of times a driver has returned from `epoll_wait`.
pub(crate) fn parks() -> u64 {
    PARKS.load(Ordering::Relaxed)
}

/// Blocks in `epoll_wait` for at most `timeout_ms` (-1: until an event),
/// then adds the waker of every socket direction that became ready to
/// `wakers`. An unpark byte only ends the wait.
pub(crate) fn turn(timeout_ms: i32, wakers: &mut Vec<Waker>) {
    let reactor = reactor().expect("the shim's epoll instance");
    let mut events = [sys::Event::EMPTY; 256];
    let n = match sys::wait(&reactor.epoll, &mut events, timeout_ms) {
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
        Err(e) => panic!("epoll_wait: {e}"),
    };
    PARKS.fetch_add(1, Ordering::Relaxed);
    let table = reactor
        .table
        .lock()
        .expect("the socket table is never held across a panic");
    for event in &events[..n] {
        let (bits, token) = (event.events, event.token);
        if token == UNPARK {
            // Drained to `WouldBlock`, so the next byte is a new edge.
            let mut sink = [0u8; 64];
            while matches!((&reactor.unpark_rx).read(&mut sink), Ok(n) if n > 0) {}
            continue;
        }
        // A miss is an event harvested just before its socket
        // deregistered.
        let Some(io) = table.get(&token) else {
            continue;
        };
        let broken = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
        if broken || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            wakers.extend(io.read.set_ready());
        }
        if broken || bits & sys::EPOLLOUT != 0 {
            wakers.extend(io.write.set_ready());
        }
    }
}

/// Ends a driver's `epoll_wait`, or its next one if it is not parked.
pub(crate) fn unpark() {
    if let Ok(r) = reactor() {
        // A full pipe already holds a wake-up.
        let _ = (&r.unpark_tx).write(&[1]);
    }
}

/// Number of sockets currently registered (leak checks in tests).
pub(crate) fn registrations() -> usize {
    reactor().map_or(0, |r| r.table.lock().unwrap().len())
}

/// A nonblocking socket registered with the reactor for as long as this
/// value lives.
pub(crate) struct Registered<S: AsFd> {
    io: S,
    reactor: &'static Reactor,
    token: u64,
    state: Arc<ScheduledIo>,
}

impl<S: AsFd> Registered<S> {
    /// Registers `io`, which must already be in nonblocking mode.
    pub(crate) fn new(io: S) -> io::Result<Self> {
        let reactor = reactor()?;
        let token = reactor.next_token.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(ScheduledIo::default());
        // Table first: the socket may already be readable, and its first
        // edge can arrive the moment `add` returns.
        reactor.table.lock().unwrap().insert(token, state.clone());
        if let Err(e) = sys::add(&reactor.epoll, io.as_fd(), token) {
            reactor.table.lock().unwrap().remove(&token);
            return Err(e);
        }
        Ok(Registered {
            io,
            reactor,
            token,
            state,
        })
    }

    /// The wrapped socket, for calls that never block.
    pub(crate) fn io(&self) -> &S {
        &self.io
    }

    /// Runs `op` until it yields something other than `WouldBlock`, or
    /// parks `cx`'s waker on `direction` and returns `Pending`.
    pub(crate) fn poll_io<T>(
        &self,
        direction: Direction,
        cx: &mut Context<'_>,
        mut op: impl FnMut(&S) -> io::Result<T>,
    ) -> Poll<io::Result<T>> {
        let slot = match direction {
            Direction::Read => &self.state.read,
            Direction::Write => &self.state.write,
        };
        loop {
            // Cleared before the attempt, so an edge that lands after the
            // kernel said `WouldBlock` is still set when we look below.
            slot.ready.store(false, Ordering::SeqCst);
            match op(&self.io) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return Poll::Ready(other),
            }
            {
                let mut parked = slot.waker.lock().unwrap();
                if !parked.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                    *parked = Some(cx.waker().clone());
                }
            }
            // The lost-wake window: an edge between the attempt and the
            // store above found no waker to take, but it did set the bit.
            if !slot.ready.load(Ordering::SeqCst) {
                return Poll::Pending;
            }
        }
    }
}

impl<S: AsFd> Drop for Registered<S> {
    fn drop(&mut self) {
        // Runs before `io` closes. A failed delete means the kernel has
        // already forgotten the fd.
        let _ = sys::delete(&self.reactor.epoll, self.io.as_fd());
        self.reactor.table.lock().unwrap().remove(&self.token);
    }
}
