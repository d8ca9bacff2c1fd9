//! `httpx::call` against a target that black-holes the connect. (Refused
//! connects and silent servers are covered through its callers, e.g.
//! `pingmesh-controller`'s `fetch_from_dead_controller_is_an_error` and
//! `fetch_from_stalled_controller_times_out_not_hangs`.)

use pingmesh_httpx::{call, CallError, Request};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

extern "C" {
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// A listener that never accepts and whose accept queue is already full,
/// so the kernel drops further SYNs and `connect(2)` hangs in SYN
/// retransmission — a black-holed address, on loopback. The returned
/// streams occupy the queue and must be kept alive.
fn black_hole() -> (TcpListener, SocketAddr, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // std offers no way to pick the backlog; re-listening shrinks it.
    // SAFETY: `listen` takes a descriptor and an int and touches no
    // memory; the descriptor is open, owned by `listener`, for the call.
    assert_eq!(unsafe { listen(listener.as_raw_fd(), 0) }, 0);
    let mut parked = Vec::new();
    for _ in 0..16 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(s) => parked.push(s),
            Err(_) => return (listener, addr, parked),
        }
    }
    panic!("accept queue of backlog 0 never filled");
}

/// What `pingmesh-top`'s scrape does, against a target that swallows
/// SYNs: the connect phase must give up at the deadline, not hang.
#[tokio::test]
async fn black_holed_target_times_out_in_connect() {
    let (_listener, addr, _parked) = black_hole();
    let deadline = Duration::from_millis(300);
    let t0 = Instant::now();
    let err = call(addr, &Request::get("/metrics"), deadline)
        .await
        .unwrap_err();
    assert!(matches!(err, CallError::Timeout("connect")), "{err}");
    assert!(t0.elapsed() >= deadline);
    assert!(t0.elapsed() < Duration::from_secs(3), "{:?}", t0.elapsed());
}
