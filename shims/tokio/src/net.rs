//! TCP over nonblocking std sockets registered with the epoll reactor:
//! every operation tries its system call first and, on `WouldBlock`,
//! sleeps until the reactor reports the socket ready.

use crate::io::{AsyncRead, AsyncWrite};
use crate::reactor::{Direction, Registered};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

type Socket = Registered<std::net::TcpStream>;

fn poll_read(sock: &Socket, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
    sock.poll_io(Direction::Read, cx, |mut s| s.read(buf))
}

fn poll_write(sock: &Socket, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
    sock.poll_io(Direction::Write, cx, |mut s| s.write(buf))
}

/// A nonblocking TCP connection.
pub struct TcpStream {
    sock: Socket,
}

struct ConnectSlot {
    result: Mutex<Option<io::Result<std::net::TcpStream>>>,
    waker: Mutex<Option<Waker>>,
}

impl TcpStream {
    fn register(stream: std::net::TcpStream) -> io::Result<TcpStream> {
        stream.set_nonblocking(true)?;
        Ok(TcpStream {
            sock: Registered::new(stream)?,
        })
    }

    /// Connects to `addr`. The blocking `connect(2)` runs on a helper
    /// thread so this future stays cancellable (e.g. under `timeout`).
    pub async fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no addresses to connect to",
            ));
        }
        let slot = Arc::new(ConnectSlot {
            result: Mutex::new(None),
            waker: Mutex::new(None),
        });
        let slot2 = slot.clone();
        std::thread::Builder::new()
            .name("tokio-shim-connect".into())
            .spawn(move || {
                let r = std::net::TcpStream::connect(&addrs[..]);
                *slot2.result.lock().unwrap() = Some(r);
                if let Some(w) = slot2.waker.lock().unwrap().take() {
                    w.wake();
                }
            })
            .map_err(|e| io::Error::other(format!("spawn connect helper: {e}")))?;
        let stream = std::future::poll_fn(|cx| {
            if let Some(r) = slot.result.lock().unwrap().take() {
                return Poll::Ready(r);
            }
            *slot.waker.lock().unwrap() = Some(cx.waker().clone());
            // Re-check: the helper may have finished between the first
            // check and waker registration (the lost-wake window).
            if let Some(r) = slot.result.lock().unwrap().take() {
                return Poll::Ready(r);
            }
            Poll::Pending
        })
        .await?;
        TcpStream::register(stream)
    }

    /// Sets TCP_NODELAY.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.sock.io().set_nodelay(nodelay)
    }

    /// Shuts down the read, write, or both halves of this connection
    /// (maps directly to `shutdown(2)`). It takes effect on the socket
    /// immediately, so the peer observes the half-close even while the
    /// other half of a split stream is still alive.
    pub fn shutdown_now(&self, how: std::net::Shutdown) -> io::Result<()> {
        self.sock.io().shutdown(how)
    }

    /// Splits the stream into independently owned read and write halves
    /// so two tasks can pump opposite directions concurrently. Both are
    /// handles to the one registered socket, which closes when the second
    /// of them drops.
    pub fn into_split(self) -> (OwnedReadHalf, OwnedWriteHalf) {
        let sock = Arc::new(self.sock);
        (
            OwnedReadHalf { sock: sock.clone() },
            OwnedWriteHalf { sock },
        )
    }

    /// Local socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.io().local_addr()
    }

    /// Remote socket address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.sock.io().peer_addr()
    }
}

impl AsyncRead for TcpStream {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        poll_read(&self.sock, cx, buf)
    }
}

impl AsyncWrite for TcpStream {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        poll_write(&self.sock, cx, buf)
    }

    fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        // Kernel TCP sockets have no userspace buffer to flush.
        Poll::Ready(Ok(()))
    }
}

/// The read half of a split [`TcpStream`].
pub struct OwnedReadHalf {
    sock: Arc<Socket>,
}

impl AsyncRead for OwnedReadHalf {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        poll_read(&self.sock, cx, buf)
    }
}

/// The write half of a split [`TcpStream`].
pub struct OwnedWriteHalf {
    sock: Arc<Socket>,
}

impl OwnedWriteHalf {
    /// Shuts down part of the connection; see [`TcpStream::shutdown_now`].
    pub fn shutdown_now(&self, how: std::net::Shutdown) -> io::Result<()> {
        self.sock.io().shutdown(how)
    }
}

impl AsyncWrite for OwnedWriteHalf {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        poll_write(&self.sock, cx, buf)
    }

    fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }
}

/// A nonblocking TCP listener.
pub struct TcpListener {
    sock: Registered<std::net::TcpListener>,
}

impl TcpListener {
    /// Binds to `addr` in nonblocking mode.
    pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        let inner = std::net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(TcpListener {
            sock: Registered::new(inner)?,
        })
    }

    /// Local socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.io().local_addr()
    }

    /// Accepts one connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, addr) =
            std::future::poll_fn(|cx| self.sock.poll_io(Direction::Read, cx, |l| l.accept()))
                .await?;
        Ok((TcpStream::register(stream)?, addr))
    }
}
