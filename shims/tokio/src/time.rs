//! Timers: `sleep` and `timeout`, backed by the timer map the driving
//! worker fires.

use crate::timer;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Future returned by [`sleep`].
pub struct Sleep {
    deadline: Instant,
    /// The timer entry made on the first `Pending` poll, and the waker it
    /// holds.
    entry: Option<(timer::Key, Waker)>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        match &mut self.entry {
            None => {
                let key = timer::insert(self.deadline, cx.waker().clone());
                self.entry = Some((key, cx.waker().clone()));
            }
            Some((key, waker)) if !waker.will_wake(cx.waker()) => {
                if !timer::set_waker(*key, cx.waker().clone()) {
                    return Poll::Ready(());
                }
                *waker = cx.waker().clone();
            }
            Some(_) => {}
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some((key, _)) = self.entry {
            timer::remove(key);
        }
    }
}

/// Completes once `duration` has elapsed.
pub fn sleep(duration: Duration) -> Sleep {
    Sleep {
        deadline: Instant::now().checked_add(duration).unwrap_or_else(|| {
            // Saturate absurd durations ~30 years out.
            Instant::now() + Duration::from_secs(60 * 60 * 24 * 365 * 30)
        }),
        entry: None,
    }
}

/// Error returned by [`timeout`] when the deadline fires first.
#[derive(Debug, PartialEq, Eq)]
pub struct Elapsed(());

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline has elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    future: Pin<Box<F>>,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = &mut *self;
        if let Poll::Ready(v) = me.future.as_mut().poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut me.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed(()))),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Races `future` against a deadline `duration` from now.
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    Timeout {
        future: Box::pin(future),
        sleep: sleep(duration),
    }
}
