//! Offline in-tree shim for the subset of tokio this workspace uses.
//!
//! A small async runtime on std plus `epoll`: a global pool of one worker
//! per core with wake-coalescing tasks, a timer map whose entries live
//! and die with their `Sleep`, nonblocking TCP woken by readiness edges
//! (Linux only, like the rest of the workspace's real-socket mode), an
//! in-memory duplex pipe, `watch` channels, `JoinSet`, and a two-branch
//! `select!`. The workers are the only runtime threads: an idle one
//! takes the driver role, blocks in `epoll_wait` until a socket edge or
//! the earliest timer, and runs the first task it woke itself. See each
//! module for the deliberate simplifications versus real tokio.
//!
//! `sys` holds the three foreign `epoll` declarations and is the only
//! place in the crate where `unsafe` is allowed.

#![deny(unsafe_code)]

mod exec;
mod reactor;
#[allow(unsafe_code)]
mod sys;
mod timer;

pub mod io;
pub mod net;
pub mod runtime;
pub mod sync;
pub mod task;
pub mod time;

pub use exec::spawn;
pub use tokio_macros::{main, test};

/// Counts of what the runtime currently holds, for leak tests. Not part
/// of the tokio surface.
#[doc(hidden)]
pub mod diag {
    /// Sockets registered with the reactor.
    pub fn io_registrations() -> usize {
        crate::reactor::registrations()
    }

    /// Pending timer entries.
    pub fn timer_entries() -> usize {
        crate::timer::len()
    }

    /// Returns from `epoll_wait`, by whichever worker held the driver role.
    pub fn driver_parks() -> u64 {
        crate::reactor::parks()
    }

    /// Sleeping workers notified plus parked drivers unparked.
    pub fn wakeups_sent() -> u64 {
        crate::exec::wakeups_sent()
    }
}

/// Runs a future to completion on the current thread (used by the
/// `#[tokio::main]` / `#[tokio::test]` macro expansions).
pub fn block_on_sync<F: std::future::Future>(f: F) -> F::Output {
    exec::block_on(f)
}

/// Outcome of [`race2`]: which of the two futures finished first.
#[doc(hidden)]
pub enum Either<A, B> {
    /// The first future won.
    A(A),
    /// The second future won.
    B(B),
}

/// Polls two futures concurrently, resolving with whichever finishes
/// first (the loser is dropped). Support for the `select!` macro.
#[doc(hidden)]
pub async fn race2<FA, FB>(fa: FA, fb: FB) -> Either<FA::Output, FB::Output>
where
    FA: std::future::Future,
    FB: std::future::Future,
{
    let mut fa = std::pin::pin!(fa);
    let mut fb = std::pin::pin!(fb);
    std::future::poll_fn(move |cx| {
        if let std::task::Poll::Ready(v) = fa.as_mut().poll(cx) {
            return std::task::Poll::Ready(Either::A(v));
        }
        if let std::task::Poll::Ready(v) = fb.as_mut().poll(cx) {
            return std::task::Poll::Ready(Either::B(v));
        }
        std::task::Poll::Pending
    })
    .await
}

/// Two-branch `select!`: races both futures, runs the winning arm's block.
/// Only the `_ = fut => { .. }` binding form is supported.
#[macro_export]
macro_rules! select {
    (_ = $f1:expr => $b1:block $(,)? _ = $f2:expr => $b2:block $(,)?) => {{
        match $crate::race2($f1, $f2).await {
            $crate::Either::A(_) => $b1,
            $crate::Either::B(_) => $b2,
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::io::{AsyncReadExt, AsyncWriteExt};
    use crate::block_on_sync;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn block_on_plain_future() {
        assert_eq!(block_on_sync(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawn_and_join() {
        let out = block_on_sync(async {
            let h = crate::spawn(async { 7u32 });
            h.await.unwrap()
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn spawned_panic_is_reported() {
        let err = block_on_sync(async {
            let h = crate::spawn(async { panic!("boom") });
            h.await.unwrap_err()
        });
        assert!(err.is_panic());
    }

    #[test]
    fn abort_cancels_task() {
        let err = block_on_sync(async {
            let h = crate::spawn(async {
                crate::time::sleep(Duration::from_secs(300)).await;
            });
            h.abort();
            h.await.unwrap_err()
        });
        assert!(err.is_cancelled());
    }

    #[test]
    fn sleep_waits_roughly_right() {
        let t0 = Instant::now();
        block_on_sync(crate::time::sleep(Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn timeout_elapses_and_passes_through() {
        block_on_sync(async {
            let r = crate::time::timeout(
                Duration::from_millis(10),
                crate::time::sleep(Duration::from_secs(60)),
            )
            .await;
            assert!(r.is_err());
            let r = crate::time::timeout(Duration::from_secs(60), async { 5u8 }).await;
            assert_eq!(r.unwrap(), 5);
        });
    }

    #[test]
    fn duplex_round_trip_and_eof() {
        block_on_sync(async {
            let (mut a, mut b) = crate::io::duplex(4);
            let writer = crate::spawn(async move {
                a.write_all(b"hello world, longer than cap").await.unwrap();
                a.flush().await.unwrap();
                // a drops here -> b sees EOF
            });
            let mut got = Vec::new();
            let mut chunk = [0u8; 8];
            loop {
                let n = b.read(&mut chunk).await.unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&chunk[..n]);
            }
            writer.await.unwrap();
            assert_eq!(&got, b"hello world, longer than cap");
        });
    }

    #[test]
    fn watch_changed_wakes() {
        block_on_sync(async {
            let (tx, mut rx) = crate::sync::watch::channel(false);
            assert!(!*rx.borrow());
            let h = crate::spawn(async move {
                rx.changed().await.unwrap();
                *rx.borrow()
            });
            crate::time::sleep(Duration::from_millis(10)).await;
            tx.send(true).unwrap();
            assert!(h.await.unwrap());
        });
    }

    #[test]
    fn select_picks_first_ready() {
        block_on_sync(async {
            let mut hits = 0;
            crate::select! {
                _ = crate::time::sleep(Duration::from_millis(5)) => { hits += 1; }
                _ = crate::time::sleep(Duration::from_secs(60)) => { hits += 100; }
            }
            assert_eq!(hits, 1);
        });
    }

    #[test]
    fn join_set_drains_all() {
        block_on_sync(async {
            let counter = Arc::new(AtomicUsize::new(0));
            let mut set = crate::task::JoinSet::new();
            for i in 0..20usize {
                let c = counter.clone();
                set.spawn(async move {
                    crate::task::yield_now().await;
                    c.fetch_add(1, Ordering::Relaxed);
                    i
                });
            }
            let mut seen = Vec::new();
            while let Some(r) = set.join_next().await {
                seen.push(r.unwrap());
            }
            assert_eq!(seen.len(), 20);
            assert_eq!(counter.load(Ordering::Relaxed), 20);
        });
    }

    #[test]
    fn split_halves_and_shutdown_propagate() {
        block_on_sync(async {
            let listener = crate::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            // Server: echo one 4-byte message, then half-close the write
            // side so the client sees EOF even though the read half (a
            // second handle to the same socket) is still alive.
            crate::spawn(async move {
                let (s, _) = listener.accept().await.unwrap();
                let (mut r, mut w) = s.into_split();
                let mut buf = [0u8; 4];
                r.read_exact(&mut buf).await.unwrap();
                w.write_all(&buf).await.unwrap();
                w.shutdown_now(std::net::Shutdown::Write).unwrap();
                // Hold the read half open past the client's EOF check.
                crate::time::sleep(Duration::from_millis(200)).await;
                drop(r);
            });
            let mut c = crate::net::TcpStream::connect(addr).await.unwrap();
            c.write_all(b"ping").await.unwrap();
            let mut back = [0u8; 4];
            c.read_exact(&mut back).await.unwrap();
            assert_eq!(&back, b"ping");
            // The server's shutdown must deliver EOF promptly.
            let n = crate::time::timeout(Duration::from_secs(2), c.read(&mut back))
                .await
                .expect("EOF within deadline")
                .unwrap();
            assert_eq!(n, 0);
        });
    }

    #[test]
    fn tcp_echo_over_shim() {
        block_on_sync(async {
            let listener = crate::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            crate::spawn(async move {
                let (mut s, _) = listener.accept().await.unwrap();
                let mut buf = [0u8; 5];
                s.read_exact(&mut buf).await.unwrap();
                s.write_all(&buf).await.unwrap();
            });
            let mut c = crate::net::TcpStream::connect(addr).await.unwrap();
            c.set_nodelay(true).unwrap();
            c.write_u32(5).await.unwrap();
            // The server reads 5 raw bytes: 4 length + 1 payload byte.
            c.write_all(b"x").await.unwrap();
            let mut back = [0u8; 5];
            c.read_exact(&mut back).await.unwrap();
            assert_eq!(&back[..4], &5u32.to_be_bytes());
            assert_eq!(back[4], b'x');
        });
    }
}
