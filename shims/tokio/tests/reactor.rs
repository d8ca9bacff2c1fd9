//! The readiness reactor and the timer map, checked from outside the
//! crate: nothing is lost, nothing leaks, nothing runs while idle, and a
//! worker that blocks never takes the sockets or the timers down with it.
//!
//! Several tests compare process-wide counts (open descriptors, reactor
//! registrations, timer entries), so every test in this file holds one
//! lock and joins what it spawned before returning.

use std::future::Future;
use std::net::{Shutdown, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Poll;
use std::time::{Duration, Instant};
use tokio::diag::{driver_parks, io_registrations, timer_entries, wakeups_sent};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::time::timeout;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on the shim with a hang backstop. `f` starts on the second
/// poll, when the backstop's own timer entry already exists, so a test
/// sees the same entry count from its first line to its last.
fn run<F: Future>(f: F) -> F::Output {
    tokio::block_on_sync(async {
        let started = async {
            tokio::task::yield_now().await;
            f.await
        };
        timeout(Duration::from_secs(120), started)
            .await
            .expect("test finished within 120 s")
    })
}

async fn listener() -> (TcpListener, SocketAddr) {
    let l = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = l.local_addr().unwrap();
    (l, addr)
}

/// Wraps `f` so that every poll of it is counted in `polls`.
fn counted<F: Future>(f: F, polls: Arc<AtomicUsize>) -> impl Future<Output = F::Output> {
    let mut f = Box::pin(f);
    std::future::poll_fn(move |cx| {
        polls.fetch_add(1, Ordering::Relaxed);
        f.as_mut().poll(cx)
    })
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

async fn echo_until_eof(mut s: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf).await.unwrap() {
            0 => return,
            n => s.write_all(&buf[..n]).await.unwrap(),
        }
    }
}

#[test]
fn echo_on_256_concurrent_connections() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let server = tokio::spawn(async move {
            let mut conns = Vec::new();
            for _ in 0..256 {
                let (s, _) = l.accept().await.unwrap();
                conns.push(tokio::spawn(echo_until_eof(s)));
            }
            for c in conns {
                c.await.unwrap();
            }
        });
        let clients: Vec<_> = (0..256u32)
            .map(|i| {
                tokio::spawn(async move {
                    let mut c = TcpStream::connect(addr).await.unwrap();
                    for round in 0..8u32 {
                        let msg = (i * 8 + round).to_be_bytes();
                        c.write_all(&msg).await.unwrap();
                        let mut back = [0u8; 4];
                        c.read_exact(&mut back).await.unwrap();
                        assert_eq!(back, msg);
                    }
                })
            })
            .collect();
        for c in clients {
            c.await.unwrap();
        }
        server.await.unwrap();
    });
}

#[test]
fn split_halves_driven_from_two_tasks_at_once() {
    const TOTAL: usize = 4 << 20;
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let server = tokio::spawn(async move { echo_until_eof(l.accept().await.unwrap().0).await });
        let (mut r, mut w) = TcpStream::connect(addr).await.unwrap().into_split();
        // More than the socket buffers hold, so the writer blocks on
        // `WouldBlock` while the reader is parked on the same socket.
        let writer = tokio::spawn(async move {
            let chunk: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
            for _ in 0..TOTAL / chunk.len() {
                w.write_all(&chunk).await.unwrap();
            }
            w.shutdown_now(Shutdown::Write).unwrap();
        });
        let reader = tokio::spawn(async move {
            let mut got = 0usize;
            let mut buf = vec![0u8; 16 * 1024];
            loop {
                let n = r.read(&mut buf).await.unwrap();
                if n == 0 {
                    return got;
                }
                for (k, b) in buf[..n].iter().enumerate() {
                    assert_eq!(*b, (((got + k) % (64 * 1024)) % 251) as u8);
                }
                got += n;
            }
        });
        writer.await.unwrap();
        assert_eq!(reader.await.unwrap(), TOTAL);
        server.await.unwrap();
    });
}

#[test]
fn burst_of_64_connects_is_fully_accepted() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        // All 64 land in the backlog before the first accept: one edge.
        let clients: Vec<std::net::TcpStream> = (0..64)
            .map(|_| std::net::TcpStream::connect(addr).unwrap())
            .collect();
        for _ in 0..64 {
            timeout(Duration::from_secs(5), l.accept())
                .await
                .expect("edge-triggered accept drains the backlog")
                .unwrap();
        }
        drop(clients);
    });
}

#[test]
fn ten_thousand_one_byte_ping_pongs_lose_no_wake() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let server = tokio::spawn(async move { echo_until_eof(l.accept().await.unwrap().0).await });
        let mut c = TcpStream::connect(addr).await.unwrap();
        c.set_nodelay(true).unwrap();
        for i in 0..10_000u32 {
            let byte = [i as u8];
            c.write_all(&byte).await.unwrap();
            let mut back = [0u8; 1];
            timeout(Duration::from_secs(5), c.read_exact(&mut back))
                .await
                .unwrap_or_else(|_| panic!("round {i}: wake lost"))
                .unwrap();
            assert_eq!(back, byte);
        }
        drop(c);
        server.await.unwrap();
    });
}

#[test]
fn drops_in_every_order_leak_no_fd_and_no_registration() {
    let _g = serial();
    run(async {
        // Start the reactor, timer and workers (and their descriptors).
        drop(listener().await);
        tokio::time::sleep(Duration::from_millis(1)).await;
        let (fds, regs) = (open_fds(), io_registrations());

        for order in 0..6 {
            let (l, addr) = listener().await;
            let c = TcpStream::connect(addr).await.unwrap();
            let (s, _) = l.accept().await.unwrap();
            assert_eq!(io_registrations(), regs + 3);
            match order {
                0 => {
                    drop(l);
                    drop(c);
                    drop(s);
                }
                1 => {
                    drop(s);
                    drop(c);
                    drop(l);
                }
                2 => {
                    let (r, w) = c.into_split();
                    drop(r);
                    assert_eq!(io_registrations(), regs + 3, "write half keeps it");
                    drop(w);
                    drop((l, s));
                }
                3 => {
                    let (r, w) = s.into_split();
                    drop(w);
                    assert_eq!(io_registrations(), regs + 3, "read half keeps it");
                    drop((l, c));
                    drop(r);
                }
                4 => {
                    // Dropped while a task is parked on the socket.
                    let mut s = s;
                    let parked = tokio::spawn(async move {
                        let mut b = [0u8; 1];
                        let _ = s.read(&mut b).await;
                    });
                    tokio::time::sleep(Duration::from_millis(5)).await;
                    parked.abort();
                    let _ = parked.await;
                    drop((l, c));
                }
                _ => {
                    // Closed by the peer first, then dropped.
                    c.shutdown_now(Shutdown::Both).unwrap();
                    drop(c);
                    let mut s = s;
                    let mut b = [0u8; 1];
                    assert_eq!(s.read(&mut b).await.unwrap(), 0);
                    drop((l, s));
                }
            }
            assert_eq!(io_registrations(), regs, "order {order}");
            assert_eq!(open_fds(), fds, "order {order}");
        }
    });
}

#[test]
fn local_shutdown_wakes_the_task_parked_on_the_other_half() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let c = TcpStream::connect(addr).await.unwrap();
        let (_s, _) = l.accept().await.unwrap();
        let (mut r, w) = c.into_split();
        let reader = tokio::spawn(async move {
            let mut b = [0u8; 1];
            r.read(&mut b).await
        });
        tokio::time::sleep(Duration::from_millis(20)).await;
        w.shutdown_now(Shutdown::Both).unwrap();
        let n = timeout(Duration::from_secs(2), reader)
            .await
            .expect("reader woken by the local shutdown")
            .unwrap()
            .unwrap();
        assert_eq!(n, 0);
    });
}

#[test]
fn task_blocked_on_an_idle_socket_is_not_polled() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let mut c = TcpStream::connect(addr).await.unwrap();
        let (mut s, _) = l.accept().await.unwrap();
        let polls = Arc::new(AtomicUsize::new(0));
        let task = tokio::spawn(counted(
            async move {
                let mut b = [0u8; 1];
                s.read(&mut b).await.unwrap()
            },
            polls.clone(),
        ));
        tokio::time::sleep(Duration::from_millis(200)).await;
        let idle = polls.load(Ordering::Relaxed);
        assert!(idle <= 2, "{idle} polls in 200 idle ms");
        c.write_all(b"x").await.unwrap();
        assert_eq!(task.await.unwrap(), 1);
        assert!(polls.load(Ordering::Relaxed) <= idle + 2);
    });
}

#[test]
fn sixty_four_idle_keep_alive_connections_cost_nothing() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        let polls = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            clients.push(TcpStream::connect(addr).await.unwrap());
            let (mut s, _) = l.accept().await.unwrap();
            // What a keep-alive handler does between requests: a read
            // under the codec's 30 s deadline.
            servers.push(tokio::spawn(counted(
                async move {
                    let mut b = [0u8; 64];
                    timeout(Duration::from_secs(30), s.read(&mut b))
                        .await
                        .expect("no deadline")
                        .unwrap()
                },
                polls.clone(),
            )));
        }
        tokio::time::sleep(Duration::from_millis(50)).await;
        let timers = timer_entries();
        tokio::time::sleep(Duration::from_secs(1)).await;
        // This task's own 1 s sleep has fired and gone.
        assert_eq!(timer_entries(), timers, "timer map grew while idle");
        let total = polls.load(Ordering::Relaxed);
        assert!(total <= 2 * 64, "{total} polls of 64 idle tasks in 1 s");
        drop(clients);
        for s in servers {
            assert_eq!(s.await.unwrap(), 0);
        }
    });
}

#[test]
fn completed_timeouts_leave_no_timer_entry() {
    let _g = serial();
    run(async {
        let before = timer_entries();
        for _ in 0..10_000 {
            let mut first = true;
            let once_pending = std::future::poll_fn(|cx| {
                if std::mem::take(&mut first) {
                    cx.waker().wake_by_ref();
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            });
            timeout(Duration::from_secs(30), once_pending)
                .await
                .unwrap();
        }
        assert_eq!(timer_entries(), before);
    });
}

#[test]
fn one_timeout_polled_many_times_holds_one_entry() {
    let _g = serial();
    run(async {
        let before = timer_entries();
        let mut left = 10_000u32;
        let mut most = 0;
        let busy = std::future::poll_fn(|cx| {
            most = most.max(timer_entries());
            if left == 0 {
                return Poll::Ready(());
            }
            left -= 1;
            cx.waker().wake_by_ref();
            Poll::Pending
        });
        timeout(Duration::from_secs(30), busy).await.unwrap();
        assert_eq!(most, before + 1);
        assert_eq!(timer_entries(), before);
    });
}

#[test]
fn a_blocked_worker_hands_the_sockets_to_another() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let mut trigger = TcpStream::connect(addr).await.unwrap();
        let (mut parked, _) = l.accept().await.unwrap();
        let blocking = Arc::new(AtomicBool::new(false));
        let flag = blocking.clone();
        // Woken by a readiness edge, so the driver that harvests it runs
        // it, then holds its thread for 300 ms.
        let blocker = tokio::spawn(async move {
            let mut b = [0u8; 1];
            parked.read_exact(&mut b).await.unwrap();
            flag.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(300));
        });
        let mut c = TcpStream::connect(addr).await.unwrap();
        c.set_nodelay(true).unwrap();
        let server = tokio::spawn(echo_until_eof(l.accept().await.unwrap().0));
        tokio::time::sleep(Duration::from_millis(5)).await;
        trigger.write_all(b"x").await.unwrap();
        // This thread is not a worker; it may block.
        while !blocking.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        for i in 0..50u32 {
            c.write_all(&i.to_be_bytes()).await.unwrap();
            let mut back = [0u8; 4];
            c.read_exact(&mut back).await.unwrap();
            assert_eq!(back, i.to_be_bytes());
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "50 round trips took {took:?} beside a blocked worker"
        );
        blocker.await.unwrap();
        drop(c);
        server.await.unwrap();
    });
}

#[test]
fn a_new_earliest_deadline_cuts_a_long_park_short() {
    let _g = serial();
    run(async {
        let long = tokio::spawn(tokio::time::sleep(Duration::from_secs(30)));
        // Let the driver park on the 30 s deadline. Not a timer: this
        // thread is not a worker and may block.
        std::thread::sleep(Duration::from_millis(20));
        let short = tokio::spawn(async {
            let t0 = Instant::now();
            tokio::time::sleep(Duration::from_millis(20)).await;
            t0.elapsed()
        });
        let took = short.await.unwrap();
        assert!(
            took >= Duration::from_millis(20) && took < Duration::from_millis(200),
            "a 20 ms sleep took {took:?} behind a 30 s one"
        );
        long.abort();
        let _ = long.await;
    });
}

#[test]
fn short_sleeps_never_return_early_and_never_spin() {
    let _g = serial();
    run(async {
        let parks = driver_parks();
        let sleeps = tokio::spawn(async {
            for i in 0..200u64 {
                let d = Duration::from_micros(i * 3_000 / 199);
                let t0 = Instant::now();
                tokio::time::sleep(d).await;
                let took = t0.elapsed();
                assert!(took >= d, "a {d:?} sleep returned after {took:?}");
            }
        });
        sleeps.await.unwrap();
        // A park rounded down to whole milliseconds wakes short of the
        // deadline and then polls `epoll_wait` with a zero timeout until
        // it passes: hundreds of parks per sleep.
        let parks = driver_parks() - parks;
        assert!(parks <= 3 * 200, "{parks} driver parks for 200 sleeps");
    });
}

#[test]
fn an_idle_runtime_stays_parked() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let mut c = TcpStream::connect(addr).await.unwrap();
        let (mut s, _) = l.accept().await.unwrap();
        let reader = tokio::spawn(async move {
            let mut b = [0u8; 1];
            s.read(&mut b).await.unwrap()
        });
        let timer = tokio::spawn(tokio::time::sleep(Duration::from_secs(10)));
        // The new sockets' first edges are harvested and done with.
        tokio::time::sleep(Duration::from_millis(20)).await;
        let (parks, wakeups) = (driver_parks(), wakeups_sent());
        std::thread::sleep(Duration::from_millis(200));
        let (parks, wakeups) = (driver_parks() - parks, wakeups_sent() - wakeups);
        assert!(parks <= 3, "{parks} driver parks in 200 idle ms");
        assert!(wakeups <= 3, "{wakeups} wake-ups sent in 200 idle ms");
        c.write_all(b"x").await.unwrap();
        assert_eq!(reader.await.unwrap(), 1);
        timer.abort();
        let _ = timer.await;
    });
}

#[test]
fn the_workers_are_the_only_runtime_threads() {
    let _g = serial();
    run(async {
        let (l, addr) = listener().await;
        let _c = TcpStream::connect(addr).await.unwrap();
        let _s = l.accept().await.unwrap();
        tokio::time::sleep(Duration::from_millis(1)).await;
    });
    // `comm` holds the first 15 bytes of a thread's name. Connect
    // helpers live for one handshake each.
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap();
        let comm = comm.trim_end();
        assert!(
            !comm.starts_with("tokio-shim")
                || comm.starts_with("tokio-shim-work")
                || comm.starts_with("tokio-shim-conn"),
            "runtime thread {comm:?} besides the workers"
        );
    }
}
