//! The timer map: an ordered map of `(deadline, seq)` → waker, read by
//! whichever worker holds the driver role (see `exec`). An entry lives
//! exactly as long as the `Sleep` that made it: inserted on its first
//! `Pending` poll, removed when it fires or when the `Sleep` drops, so
//! the map's size is the number of live timers.
//!
//! The driver sleeps in `epoll_wait` until the earliest deadline, rounded
//! up to whole milliseconds so that it never wakes before it; a timer
//! therefore fires up to a millisecond late, as in upstream tokio, whose
//! wheel has the same resolution.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::task::Waker;
use std::time::Instant;

/// Identifies one entry; `seq` keeps equal deadlines distinct.
pub(crate) type Key = (Instant, u64);

struct Timers {
    entries: BTreeMap<Key, Waker>,
    next_seq: u64,
}

static TIMERS: Mutex<Timers> = Mutex::new(Timers {
    entries: BTreeMap::new(),
    next_seq: 0,
});

fn timers() -> std::sync::MutexGuard<'static, Timers> {
    TIMERS
        .lock()
        .expect("the timer lock is never held across a panic")
}

/// Arranges for `waker` to be woken at (or shortly after) `at`, until
/// [`remove`]d.
pub(crate) fn insert(at: Instant, waker: Waker) -> Key {
    let mut timers = timers();
    let key = (at, timers.next_seq);
    timers.next_seq += 1;
    timers.entries.insert(key, waker);
    let earliest = timers
        .entries
        .first_key_value()
        .is_some_and(|(k, _)| *k == key);
    drop(timers);
    // A parked driver sleeps until the previous earliest deadline; only
    // a new earliest one changes when it must get up.
    if earliest {
        crate::exec::earlier_deadline(at);
    }
    key
}

/// Points an entry at a different waker. False if the entry has already
/// fired, in which case its deadline has passed.
pub(crate) fn set_waker(key: Key, waker: Waker) -> bool {
    match timers().entries.get_mut(&key) {
        Some(w) => {
            *w = waker;
            true
        }
        None => false,
    }
}

/// Forgets an entry (a no-op once it has fired).
pub(crate) fn remove(key: Key) {
    timers().entries.remove(&key);
}

/// Number of pending entries (leak checks in tests).
pub(crate) fn len() -> usize {
    timers().entries.len()
}

/// The earliest pending deadline.
pub(crate) fn next_deadline() -> Option<Instant> {
    timers().entries.first_key_value().map(|((at, _), _)| *at)
}

/// Removes every entry due by `now` and hands back its waker.
pub(crate) fn fire_due(now: Instant, wakers: &mut Vec<Waker>) {
    let mut timers = timers();
    while let Some(entry) = timers.entries.first_entry() {
        if entry.key().0 > now {
            break;
        }
        wakers.push(entry.remove());
    }
}
