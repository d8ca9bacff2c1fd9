//! The load generator's HTTP client: blocking std sockets, pipelined,
//! with a response scanner that reads only what the generator needs
//! (status, length, validator). It is deliberately not the codec under
//! test — the generator has to be cheap enough that what it measures is
//! the server.

use crate::gen::{Keys, Pick};
use crate::sched::{from_due, OpenLoop};
use crate::span::Tracer;
use crate::stats::LatencyLog;
use pingmesh_httpx::Request;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

const READ_CHUNK: usize = 64 * 1024;
/// A response that does not arrive within this is a failed operation.
pub const IO_DEADLINE: Duration = Duration::from_secs(10);

/// One parsed response: offsets into the client's buffer, valid until
/// the next [`Client::fill`].
#[derive(Debug, Clone)]
pub struct Resp {
    pub status: u16,
    pub body: Range<usize>,
    pub etag: Option<Range<usize>>,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

fn header_value<'a>(line: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    if line.len() > name.len()
        && line[name.len()] == b':'
        && line[..name.len()].eq_ignore_ascii_case(name)
    {
        let v = &line[name.len() + 1..];
        let skip = v.iter().take_while(|b| **b == b' ').count();
        Some(&v[skip..])
    } else {
        None
    }
}

/// Asks the kernel to acknowledge received segments at once instead of
/// delaying the ACK (Linux `TCP_QUICKACK`; it is not sticky, so the
/// client re-arms it after every read). The server under test leaves
/// Nagle's algorithm on, and a client that delays ACKs turns a response
/// burst of between one and two segments into a 40 ms stall — which made
/// closed-loop capacity bimodal from run to run. The generator must not
/// be the source of that.
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: `fd` is a live socket owned by `stream` for the whole call;
    // `value` points at a 4-byte integer that outlives it and `len` is its
    // size, which is what `TCP_QUICKACK` takes. The call keeps no pointer.
    // A failure only leaves delayed ACKs on, so the result is ignored.
    let _ = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        quick_ack(&stream);
        Ok(Self {
            stream,
            buf: Vec::with_capacity(2 * READ_CHUNK),
            pos: 0,
        })
    }

    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Waits up to `wait` for more bytes; returns how many arrived (0 on
    /// timeout). EOF is an error: the server never closes a keep-alive
    /// connection first.
    pub fn fill(&mut self, wait: Duration) -> io::Result<usize> {
        if self.pos > 0 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))?;
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let got = self.stream.read(&mut self.buf[len..]);
        quick_ack(&self.stream);
        let n = match got {
            Ok(0) => {
                self.buf.truncate(len);
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                0
            }
            Err(e) => {
                self.buf.truncate(len);
                return Err(e);
            }
        };
        self.buf.truncate(len + n);
        Ok(n)
    }

    /// Pops the next complete response already in the buffer.
    pub fn next_response(&mut self) -> io::Result<Option<Resp>> {
        let bad = |what: &'static str| io::Error::new(io::ErrorKind::InvalidData, what);
        let data = &self.buf[self.pos..];
        let Some(head_len) = data
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
        else {
            return Ok(None);
        };
        let head = &data[..head_len];
        if head.len() < 12 || !head.starts_with(b"HTTP/1.") {
            return Err(bad("not an http response"));
        }
        let status = std::str::from_utf8(&head[9..12])
            .ok()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status"))?;
        let mut body_len = 0usize;
        let mut etag = None;
        let mut off = 0;
        for line in head.split(|b| *b == b'\n') {
            let line_len = line.len() + 1;
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if let Some(v) = header_value(line, b"content-length") {
                body_len = std::str::from_utf8(v)
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad content-length"))?;
            } else if let Some(v) = header_value(line, b"etag") {
                let start = self.pos + off + (line.len() - v.len());
                etag = Some(start..start + v.len());
            }
            off += line_len;
        }
        if data.len() < head_len + body_len {
            return Ok(None);
        }
        let head_at = self.pos;
        self.pos += head_len + body_len;
        Ok(Some(Resp {
            status,
            body: head_at + head_len..self.pos,
            etag,
        }))
    }

    pub fn bytes(&self, r: &Range<usize>) -> &[u8] {
        &self.buf[r.clone()]
    }

    /// One request, one response (depth 1).
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Resp> {
        self.write(request)?;
        let deadline = Instant::now() + IO_DEADLINE;
        loop {
            if let Some(r) = self.next_response()? {
                return Ok(r);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.fill(left)?;
        }
    }
}

/// A keep-alive GET for `path`, optionally conditional, as bytes.
pub fn get_bytes(path: &str, etag: Option<&[u8]>) -> Vec<u8> {
    let mut req = Request::get(path);
    req.set_keep_alive();
    if let Some(tag) = etag {
        req.headers.push((
            "if-none-match".into(),
            String::from_utf8_lossy(tag).into_owned(),
        ));
    }
    req.to_bytes()
}

/// One connection's view of the key universe: the request bytes for each
/// key, plain and conditional, and the validator it last saw.
struct ConnKeys {
    plain: Vec<Vec<u8>>,
    cond: Vec<Option<Vec<u8>>>,
    etag: Vec<Vec<u8>>,
}

impl ConnKeys {
    fn new(keys: &Keys) -> Self {
        let n = keys.paths.len();
        Self {
            plain: keys.paths.iter().map(|p| get_bytes(p, None)).collect(),
            cond: vec![None; n],
            etag: vec![Vec::new(); n],
        }
    }

    fn request(&self, pick: Pick) -> &[u8] {
        match (&self.cond[pick.key as usize], pick.replay) {
            (Some(cond), true) => cond,
            _ => &self.plain[pick.key as usize],
        }
    }

    fn learn(&mut self, keys: &Keys, key: usize, tag: &[u8]) {
        if self.etag[key] != tag {
            self.etag[key] = tag.to_vec();
            self.cond[key] = Some(get_bytes(&keys.paths[key], Some(tag)));
        }
    }
}

/// What one connection's phase produced.
#[derive(Default)]
pub struct PhaseOut {
    /// Per-request latency (closed loop: send → response; open loop: due
    /// → response), measured window only.
    pub latency: LatencyLog,
    /// Open loop only: how late each request left the generator.
    pub lateness: LatencyLog,
    pub n200: u64,
    pub n304: u64,
    /// Responses with any other status, plus requests that got none.
    pub failed: u64,
    /// Requests whose response counted toward this phase.
    pub answered: u64,
    /// Open loop only: requests scheduled in the measured window.
    pub scheduled: u64,
    /// Open loop only: requests still unanswered when the phase ended.
    pub backlog_end: u64,
    pub measured: Duration,
}

impl PhaseOut {
    pub fn merge(&mut self, o: PhaseOut) {
        self.latency.merge(o.latency);
        self.lateness.merge(o.lateness);
        self.n200 += o.n200;
        self.n304 += o.n304;
        self.failed += o.failed;
        self.answered += o.answered;
        self.scheduled += o.scheduled;
        self.backlog_end += o.backlog_end;
        self.measured = self.measured.max(o.measured);
    }
}

struct InFlight {
    key: u16,
    /// Closed loop: when it was sent. Open loop: when it was due.
    from: Instant,
    measured: bool,
}

/// Reads whatever is buffered, settling in-flight requests in order.
fn settle(
    client: &mut Client,
    inflight: &mut VecDeque<InFlight>,
    ck: &mut ConnKeys,
    keys: &Keys,
    out: &mut PhaseOut,
) -> io::Result<usize> {
    let mut settled = 0;
    while let Some(resp) = client.next_response()? {
        let now = Instant::now();
        let req = inflight.pop_front().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "response without request")
        })?;
        settled += 1;
        if let (200, Some(tag)) = (resp.status, &resp.etag) {
            ck.learn(keys, req.key as usize, client.bytes(tag));
        }
        if !req.measured {
            continue;
        }
        out.answered += 1;
        match resp.status {
            200 => out.n200 += 1,
            304 => out.n304 += 1,
            _ => out.failed += 1,
        }
        out.latency.push(now.duration_since(req.from));
    }
    Ok(settled)
}

/// Closed loop on one keep-alive connection: `depth` requests in flight;
/// every response read is replaced by a new request. Runs `warmup`
/// unrecorded, then `measure` recorded.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    keys: &Keys,
    picks: &[Pick],
    depth: usize,
    warmup: Duration,
    measure: Duration,
    tracer: &mut Tracer,
) -> io::Result<PhaseOut> {
    let (conn, _) = tracer.time("client.connect", 0, || Client::connect(addr));
    let mut client = conn?;
    let mut ck = ConnKeys::new(keys);
    let mut out = PhaseOut::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let mut wbuf: Vec<u8> = Vec::new();
    let mut next_pick = 0usize;
    let start = Instant::now();
    let measure_from = start + warmup;
    let end = measure_from + measure;
    let mut want = depth;
    let mut seq = 0u64;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        wbuf.clear();
        for _ in 0..want {
            let pick = picks[next_pick % picks.len()];
            next_pick += 1;
            wbuf.extend_from_slice(ck.request(pick));
            inflight.push_back(InFlight {
                key: pick.key,
                from: now,
                measured: now >= measure_from,
            });
        }
        if !wbuf.is_empty() {
            let (w, _) = tracer.time("client.write", seq, || client.write(&wbuf));
            w?;
            seq += want as u64;
        }
        let (got, _) = tracer.time("client.read", seq, || client.fill(IO_DEADLINE));
        if got? == 0 {
            return Err(io::ErrorKind::TimedOut.into());
        }
        want = settle(&mut client, &mut inflight, &mut ck, keys, &mut out)?;
    }
    out.measured = Instant::now().duration_since(measure_from);
    // Drain what is still in flight so the connection closes clean; these
    // late responses are not part of the measured window.
    for r in inflight.iter_mut() {
        r.measured = false;
    }
    let drain_until = Instant::now() + IO_DEADLINE;
    while !inflight.is_empty() {
        if Instant::now() >= drain_until {
            out.failed += inflight.len() as u64;
            break;
        }
        client.fill(Duration::from_millis(100))?;
        settle(&mut client, &mut inflight, &mut ck, keys, &mut out)?;
    }
    Ok(out)
}

/// Open loop on one keep-alive connection: arrivals at a fixed rate,
/// released in 1 ms ticks whatever the server does, each timed from its
/// due time. The first `warmup` of the schedule is unrecorded.
///
/// Writing and reading run on two threads over the one socket: the writer
/// sleeps on the clock (a socket read timeout is only jiffy-accurate and
/// would make the generator late), the reader blocks on the socket, so a
/// response is stamped when it arrives, not at the next tick.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    keys: &Keys,
    picks: &[Pick],
    rate_per_s: f64,
    offset: Duration,
    warmup: Duration,
    measure: Duration,
    tracer: &mut Tracer,
) -> io::Result<PhaseOut> {
    const TICK: Duration = Duration::from_millis(1);
    let (conn, _) = tracer.time("client.connect", 0, || Client::connect(addr));
    let mut reader = conn?;
    let mut writer = reader.stream.try_clone()?;
    let shared = std::sync::Mutex::new((VecDeque::<InFlight>::new(), ConnKeys::new(keys)));
    let released_all = std::sync::atomic::AtomicBool::new(false);
    let total = warmup + measure;
    let mut sched = OpenLoop::new(
        rate_per_s,
        total.as_nanos() as u64,
        offset.as_nanos() as u64,
    );
    let warm_ns = warmup.as_nanos() as u64;
    let start = Instant::now();
    let mut read_tracer = Tracer::new(tracer.enabled(), start);

    let (read_out, write_out) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| -> io::Result<PhaseOut> {
            let mut out = PhaseOut::default();
            let mut drain_until = None;
            loop {
                let (got, _) =
                    read_tracer.time("client.read", 0, || reader.fill(Duration::from_millis(100)));
                let mut guard = shared
                    .lock()
                    .expect("writer does not panic holding the lock");
                let (inflight, ck) = &mut *guard;
                if got? > 0 {
                    settle(&mut reader, inflight, ck, keys, &mut out)?;
                }
                if released_all.load(std::sync::atomic::Ordering::Acquire) {
                    if inflight.is_empty() {
                        return Ok(out);
                    }
                    // The schedule is out; whatever never arrives is failed.
                    let until = *drain_until.get_or_insert_with(|| Instant::now() + IO_DEADLINE);
                    if Instant::now() >= until {
                        out.failed += inflight.iter().filter(|r| r.measured).count() as u64;
                        return Ok(out);
                    }
                }
            }
        });

        let mut out = PhaseOut::default();
        let mut wbuf: Vec<u8> = Vec::new();
        let mut tick_at = start;
        let wrote = (|| -> io::Result<()> {
            loop {
                let now_ns = start.elapsed().as_nanos() as u64;
                let due = sched.take_due(now_ns);
                let first = due.start;
                if !due.is_empty() {
                    wbuf.clear();
                    let mut guard = shared
                        .lock()
                        .expect("reader does not panic holding the lock");
                    let (inflight, ck) = &mut *guard;
                    for i in due {
                        let pick = picks[i as usize % picks.len()];
                        let due_ns = sched.due_ns(i);
                        wbuf.extend_from_slice(ck.request(pick));
                        let measured = due_ns >= warm_ns;
                        if measured {
                            out.scheduled += 1;
                            out.lateness
                                .push(Duration::from_nanos(from_due(due_ns, now_ns, now_ns).1));
                        }
                        inflight.push_back(InFlight {
                            key: pick.key,
                            from: start + Duration::from_nanos(due_ns),
                            measured,
                        });
                    }
                    drop(guard);
                    let (w, _) = tracer.time("client.write", first, || writer.write_all(&wbuf));
                    w?;
                }
                if sched.next_due_ns().is_none() {
                    return Ok(());
                }
                tick_at += TICK;
                std::thread::sleep(tick_at.saturating_duration_since(Instant::now()));
            }
        })();
        // Whatever happened, let the reader finish.
        out.backlog_end = shared
            .lock()
            .map_or(0, |g| g.0.iter().filter(|r| r.measured).count() as u64);
        released_all.store(true, std::sync::atomic::Ordering::Release);
        (reading.join().expect("reader thread"), wrote.map(|()| out))
    });
    tracer.absorb(read_tracer);
    let mut out = write_out?;
    out.merge(read_out?);
    out.measured = measure;
    Ok(out)
}

/// A canned-bytes TCP stub: answers every request head with the same
/// bytes, parsing nothing else. Driving it with the generator shows how
/// much of a measured rate is the generator itself.
pub struct Stub {
    pub addr: SocketAddr,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

fn stub_conn(mut s: TcpStream, reply: &'static [u8]) {
    let mut buf = [0u8; 16 * 1024];
    let mut pending: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    while let Ok(n) = s.read(&mut buf) {
        if n == 0 {
            break;
        }
        pending.extend_from_slice(&buf[..n]);
        out.clear();
        while let Some(p) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
            pending.drain(..p + 4);
            out.extend_from_slice(reply);
        }
        if s.write_all(&out).is_err() {
            break;
        }
    }
}

impl Stub {
    pub fn start(reply: &'static [u8]) -> io::Result<Self> {
        use std::sync::atomic::{AtomicBool, Ordering};
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nonblocking(false);
                        let _ = s.set_nodelay(true);
                        conns.push(std::thread::spawn(move || stub_conn(s, reply)));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            // Connections end when their client closes; wait for them.
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }
}

impl Drop for Stub {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canned_server(reply: &'static [u8]) -> SocketAddr {
        // Leaked on purpose: the stub outlives the test that uses it.
        let stub = Box::leak(Box::new(Stub::start(reply).unwrap()));
        stub.addr
    }

    #[test]
    fn scanner_reads_status_length_and_validator_across_pipelined_responses() {
        let addr = canned_server(
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nETag: \"abc\"\r\ncontent-length: 5\r\nconnection: keep-alive\r\n\r\nhello",
        );
        let mut c = Client::connect(addr).unwrap();
        let req = get_bytes("/x", None);
        c.write(&[req.clone(), req.clone()].concat()).unwrap();
        let mut seen = 0;
        while seen < 2 {
            c.fill(Duration::from_secs(5)).unwrap();
            while let Some(r) = c.next_response().unwrap() {
                assert_eq!(r.status, 200);
                assert_eq!(c.bytes(&r.body), b"hello");
                assert_eq!(c.bytes(r.etag.as_ref().unwrap()), b"\"abc\"");
                seen += 1;
            }
        }
        let r = c.exchange(&req).unwrap();
        assert_eq!(r.status, 200);
    }

    #[test]
    fn closed_and_open_loops_account_for_every_request() {
        let addr = canned_server(b"HTTP/1.1 304 Not Modified\r\ncontent-length: 0\r\n\r\n");
        let keys = Keys::new(8);
        let picks = crate::gen::dashboard_picks(&keys, &mut crate::gen::Rng::new(1, 1), 1_000);
        let mut tracer = Tracer::new(true, Instant::now());
        let out = closed_loop(
            addr,
            &keys,
            &picks,
            4,
            Duration::from_millis(20),
            Duration::from_millis(100),
            &mut tracer,
        )
        .unwrap();
        assert!(out.answered > 0 && out.n304 == out.answered && out.failed == 0);
        assert_eq!(out.latency.len() as u64, out.answered);
        assert!(tracer.totals().contains_key("client.read"));

        let out = open_loop(
            addr,
            &keys,
            &picks,
            2_000.0,
            Duration::ZERO,
            Duration::from_millis(50),
            Duration::from_millis(200),
            &mut tracer,
        )
        .unwrap();
        // 2,000/s for 200 ms measured: 400 arrivals, all answered.
        assert_eq!(out.scheduled, 400);
        assert_eq!(out.answered, 400);
        assert_eq!(out.failed, 0);
        assert_eq!(out.lateness.len(), 400);
    }
}
