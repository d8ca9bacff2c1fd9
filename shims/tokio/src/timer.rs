//! A single timer thread owning an ordered map of `(deadline, seq)` →
//! waker. An entry lives exactly as long as the `Sleep` that made it:
//! inserted on its first `Pending` poll, removed when it fires or when
//! the `Sleep` drops, so the map's size is the number of live timers.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, OnceLock};
use std::task::Waker;
use std::time::Instant;

/// Identifies one entry; `seq` keeps equal deadlines distinct.
pub(crate) type Key = (Instant, u64);

struct Timers {
    entries: BTreeMap<Key, Waker>,
    next_seq: u64,
}

struct TimerShared {
    timers: Mutex<Timers>,
    cv: Condvar,
}

fn shared() -> &'static TimerShared {
    static TIMER: OnceLock<TimerShared> = OnceLock::new();
    TIMER.get_or_init(|| {
        std::thread::Builder::new()
            .name("tokio-shim-timer".into())
            .spawn(timer_loop)
            .expect("spawn timer thread");
        TimerShared {
            timers: Mutex::new(Timers {
                entries: BTreeMap::new(),
                next_seq: 0,
            }),
            cv: Condvar::new(),
        }
    })
}

/// Arranges for `waker` to be woken at (or shortly after) `at`, until
/// [`remove`]d.
pub(crate) fn insert(at: Instant, waker: Waker) -> Key {
    let t = shared();
    let mut timers = t.timers.lock().unwrap();
    let key = (at, timers.next_seq);
    timers.next_seq += 1;
    timers.entries.insert(key, waker);
    // The thread is asleep until the previous earliest deadline; only a
    // new earliest one changes when it must get up.
    if timers
        .entries
        .first_key_value()
        .is_some_and(|(k, _)| *k == key)
    {
        t.cv.notify_one();
    }
    key
}

/// Points an entry at a different waker. False if the entry has already
/// fired, in which case its deadline has passed.
pub(crate) fn set_waker(key: Key, waker: Waker) -> bool {
    match shared().timers.lock().unwrap().entries.get_mut(&key) {
        Some(w) => {
            *w = waker;
            true
        }
        None => false,
    }
}

/// Forgets an entry (a no-op once it has fired).
pub(crate) fn remove(key: Key) {
    shared().timers.lock().unwrap().entries.remove(&key);
}

/// Number of pending entries (leak checks in tests).
pub(crate) fn len() -> usize {
    shared().timers.lock().unwrap().entries.len()
}

fn timer_loop() {
    let t = shared();
    let mut timers = t.timers.lock().unwrap();
    loop {
        let now = Instant::now();
        let mut due = Vec::new();
        while let Some(entry) = timers.entries.first_entry() {
            if entry.key().0 > now {
                break;
            }
            due.push(entry.remove());
        }
        if !due.is_empty() {
            drop(timers);
            for w in due {
                w.wake();
            }
            timers = t.timers.lock().unwrap();
            continue;
        }
        timers = match timers.entries.first_key_value() {
            Some(((at, _), _)) => {
                let wait = at.saturating_duration_since(now);
                t.cv.wait_timeout(timers, wait).unwrap().0
            }
            None => t.cv.wait(timers).unwrap(),
        };
    }
}
