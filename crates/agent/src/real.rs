//! Real-socket probing and responding (tokio).
//!
//! "The Pingmesh Agent needs to act as both client and server. The client
//! part launches pings and the server part responds to the pings"
//! (§3.4.1). The paper's agent is built on a purpose-made asynchronous
//! network library over IOCP; the tokio reactor is the direct Linux
//! analogue. Three probe forms are supported, as in the paper:
//!
//! * **TCP SYN ping** — the RTT is the time `TcpStream::connect` takes
//!   (kernel completes connect on SYN-ACK receipt);
//! * **TCP payload ping** — after connect, a length-prefixed payload is
//!   sent and the peer echoes it; the payload RTT is measured separately;
//! * **HTTP ping** — a `GET /ping` answered by the agent's embedded
//!   responder.
//!
//! Every probe opens a fresh connection from a fresh ephemeral source
//! port (the OS assigns one per `connect`), exploring the ECMP fabric
//! exactly as §3.4.1 requires.

use pingmesh_httpx::{CallError, HttpError, Response};
use pingmesh_types::constants::MAX_PAYLOAD_BYTES;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

/// Result of one real TCP probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealProbeResult {
    /// SYN / SYN-ACK round trip (connect time).
    pub connect_rtt: Duration,
    /// Payload echo round trip, when a payload was exchanged.
    pub payload_rtt: Option<Duration>,
}

/// Launches a TCP ping: fresh connection, optional payload echo.
///
/// The `timeout` guards both the connect and the payload exchange; on
/// expiry the probe reports `TimedOut` (the caller maps this to
/// [`pingmesh_types::ProbeOutcome::Timeout`]).
pub async fn tcp_ping(
    addr: SocketAddr,
    payload: Option<&[u8]>,
    timeout: Duration,
) -> io::Result<RealProbeResult> {
    if let Some(p) = payload {
        if p.len() > MAX_PAYLOAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "payload exceeds the hard-coded 64 KB cap",
            ));
        }
    }
    let started = Instant::now();
    let mut stream = tokio::time::timeout(timeout, TcpStream::connect(addr))
        .await
        .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "connect timed out"))??;
    let connect_rtt = started.elapsed();
    stream.set_nodelay(true)?;

    let payload_rtt = match payload {
        None => None,
        Some(p) => {
            let t0 = Instant::now();
            let exchange = async {
                stream.write_u32(p.len() as u32).await?;
                stream.write_all(p).await?;
                stream.flush().await?;
                let n = stream.read_u32().await? as usize;
                if n != p.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "echo length mismatch",
                    ));
                }
                let mut buf = vec![0u8; n];
                stream.read_exact(&mut buf).await?;
                if buf != p {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "echo content mismatch",
                    ));
                }
                Ok(())
            };
            tokio::time::timeout(timeout, exchange)
                .await
                .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "payload timed out"))??;
            Some(t0.elapsed())
        }
    };
    Ok(RealProbeResult {
        connect_rtt,
        payload_rtt,
    })
}

/// Launches an HTTP ping against the agent's embedded HTTP responder.
pub async fn http_ping(addr: SocketAddr, timeout: Duration) -> io::Result<Duration> {
    let t0 = Instant::now();
    let req = pingmesh_httpx::Request::get("/ping");
    // `call` bounds each phase; the probe as a whole gets one `timeout`.
    let resp = tokio::time::timeout(timeout, pingmesh_httpx::call(addr, &req, timeout))
        .await
        .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "http ping timed out"))?
        .map_err(|e| match e {
            CallError::Connect(e) | CallError::Http(HttpError::Io(e)) => e,
            other => io::Error::other(other.to_string()),
        })?;
    if resp.status != 200 {
        return Err(io::Error::other(format!("http status {}", resp.status)));
    }
    Ok(t0.elapsed())
}

async fn handle_echo_conn(mut stream: TcpStream) {
    // SYN-only probes connect and immediately close; payload probes send
    // a length-prefixed message to echo. Read with a generous idle
    // timeout so dangling connections cannot accumulate.
    loop {
        let n = match tokio::time::timeout(Duration::from_secs(30), stream.read_u32()).await {
            Err(_) | Ok(Err(_)) => return, // closed or idle: SYN-only probe
            Ok(Ok(n)) => n as usize,
        };
        if n > MAX_PAYLOAD_BYTES {
            return; // refuse to echo oversized payloads (safety cap)
        }
        let mut buf = vec![0u8; n];
        if stream.read_exact(&mut buf).await.is_err() {
            return;
        }
        if stream.write_u32(n as u32).await.is_err()
            || stream.write_all(&buf).await.is_err()
            || stream.flush().await.is_err()
        {
            return;
        }
    }
}

/// Runs the TCP echo responder (the agent's "server part") until dropped.
pub async fn serve_echo(listener: TcpListener) {
    pingmesh_httpx::serve_connections(listener, handle_echo_conn).await
}

/// Runs the HTTP responder (answers `GET /ping` with `200 pong`).
pub async fn serve_http(listener: TcpListener) {
    pingmesh_httpx::serve(listener, |req| {
        if req.method == "GET" && req.path == "/ping" {
            Response::ok(b"pong".to_vec())
        } else {
            Response::not_found()
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;

    async fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve_echo(listener));
        addr
    }

    #[tokio::test]
    async fn syn_ping_measures_connect() {
        let addr = echo_server().await;
        let r = tcp_ping(addr, None, Duration::from_secs(2)).await.unwrap();
        assert!(r.connect_rtt < Duration::from_secs(1));
        assert!(r.payload_rtt.is_none());
    }

    #[tokio::test]
    async fn payload_ping_echoes() {
        let addr = echo_server().await;
        let payload = vec![0xABu8; 1_000];
        let r = tcp_ping(addr, Some(&payload), Duration::from_secs(2))
            .await
            .unwrap();
        assert!(r.payload_rtt.is_some());
    }

    #[tokio::test]
    async fn multiple_payload_sizes_roundtrip() {
        let addr = echo_server().await;
        for size in [1usize, 100, 1_500, 64 * 1024] {
            let payload = vec![7u8; size];
            let r = tcp_ping(addr, Some(&payload), Duration::from_secs(5))
                .await
                .unwrap();
            assert!(r.payload_rtt.is_some(), "size {size}");
        }
    }

    #[tokio::test]
    async fn oversized_payload_is_rejected_client_side() {
        let addr = echo_server().await;
        let payload = vec![0u8; MAX_PAYLOAD_BYTES + 1];
        let err = tcp_ping(addr, Some(&payload), Duration::from_secs(2))
            .await
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[tokio::test]
    async fn ping_to_dead_port_fails() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let err = tcp_ping(addr, None, Duration::from_secs(2)).await;
        assert!(err.is_err());
    }

    #[tokio::test]
    async fn http_ping_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve_http(listener));
        let rtt = http_ping(addr, Duration::from_secs(2)).await.unwrap();
        assert!(rtt < Duration::from_secs(1));
    }

    #[tokio::test]
    async fn concurrent_probes_share_one_responder() {
        // The paper's agent handles thousands of concurrent connections;
        // check the responder multiplexes at a modest scale.
        let addr = echo_server().await;
        let mut tasks = Vec::new();
        for i in 0..100 {
            tasks.push(tokio::spawn(async move {
                let payload = vec![i as u8; 512];
                tcp_ping(addr, Some(&payload), Duration::from_secs(5)).await
            }));
        }
        for t in tasks {
            assert!(t.await.unwrap().is_ok());
        }
    }
}
