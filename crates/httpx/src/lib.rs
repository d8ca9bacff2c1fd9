//! A minimal HTTP/1.1 codec, client and server loop over tokio streams.
//!
//! The Pingmesh Controller exposes "a simple RESTful Web API for the
//! Pingmesh Agents to retrieve their Pinglist files" (paper §3.3.2), and
//! agents both launch HTTP pings and respond to them (§3.4.1). We keep the
//! dependency surface small by implementing the tiny slice of HTTP/1.1
//! those interactions need — request/response head parsing and
//! `Content-Length` bodies — instead of pulling in a full web framework.
//!
//! Head parsing is pure functions over byte slices (unit-testable without
//! sockets). Everything that touches a stream goes through [`Conn`], the
//! one buffered reader and writer: [`call`] is one client exchange on a
//! connection of its own, and [`serve`] is the one server loop — an
//! exchange per connection unless the request asks for keep-alive, in
//! which case the connection is reused and pipelined bursts are answered
//! in one write. The controller, the collector, the serve tier and the
//! agent's `/ping` responder are each a `respond` function handed to it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use pingmesh_obs::Counter;
use std::future::Future;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tokio::io::{AsyncRead, AsyncReadExt, AsyncWrite, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

/// Maximum accepted head (request/status line + headers) size.
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted body size (pinglists are small; probe payloads are
/// capped at 64 KB by the agent anyway).
pub const MAX_BODY: usize = 1024 * 1024;

/// Default per-message deadline applied by [`Conn::read_response`],
/// [`Conn::flush`] and the [`serve`] loop. Generous — it exists so that
/// *no* codec call can hang a task forever against a stalled peer;
/// latency-sensitive callers pass their own deadline via the `*_with`
/// variants.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Errors from the codec.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request or response.
    Malformed(&'static str),
    /// Head or body exceeded the size limits.
    TooLarge,
    /// Peer closed the connection mid-message.
    UnexpectedEof,
    /// The per-call deadline expired before the message completed (e.g.
    /// a slowloris peer dripping bytes, or a stalled socket).
    Timeout,
    /// Underlying transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed http: {what}"),
            HttpError::TooLarge => write!(f, "http message too large"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
            HttpError::Timeout => write!(f, "deadline expired mid-message"),
            HttpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, e.g. `GET`.
    pub method: String,
    /// Path including query, e.g. `/pinglist/42`.
    pub path: String,
    /// Lower-cased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a GET request.
    pub fn get(path: &str) -> Self {
        Self {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Builds a POST request with a body.
    pub fn post(path: &str, body: Vec<u8>) -> Self {
        Self {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body,
        }
    }

    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// Marks the request as wanting connection reuse. Our codec defaults
    /// to one exchange per connection (an absent `connection` header
    /// means `close`, unlike browser HTTP/1.1); callers that speak to a
    /// keep-alive-aware server opt in explicitly.
    pub fn set_keep_alive(&mut self) {
        if self.header("connection").is_none() {
            self.headers
                .push(("connection".into(), "keep-alive".into()));
        }
    }

    /// Serializes the request head + body. A `connection` header set by
    /// the caller is preserved; otherwise `connection: close` is emitted
    /// (the codec's historical one-exchange default).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(128 + self.body.len());
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        write_headers_and_body(out, &self.headers, &self.body);
    }
}

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Lower-cased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 OK with a body.
    pub fn ok(body: Vec<u8>) -> Self {
        Self {
            status: 200,
            headers: Vec::new(),
            body,
        }
    }

    /// 400 Bad Request with a reason body.
    pub fn bad_request(reason: &str) -> Self {
        Self {
            status: 400,
            headers: Vec::new(),
            body: reason.as_bytes().to_vec(),
        }
    }

    /// 404 Not Found.
    pub fn not_found() -> Self {
        Self {
            status: 404,
            headers: Vec::new(),
            body: b"not found".to_vec(),
        }
    }

    /// 500 Internal Server Error with a reason body. The serving tiers
    /// answer this instead of panicking when a response body cannot be
    /// constructed — one bad request must never take the process down.
    pub fn internal_error(reason: &str) -> Self {
        Self {
            status: 500,
            headers: Vec::new(),
            body: reason.as_bytes().to_vec(),
        }
    }

    /// 503 Service Unavailable.
    pub fn unavailable() -> Self {
        Self {
            status: 503,
            headers: Vec::new(),
            body: b"unavailable".to_vec(),
        }
    }

    /// 304 Not Modified (conditional GET hit). Empty body by
    /// definition; the client keeps its cached representation.
    pub fn not_modified(etag: &str) -> Self {
        Self {
            status: 304,
            headers: vec![("etag".into(), etag.to_string())],
            body: Vec::new(),
        }
    }

    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// Marks the response as keeping the connection open. Servers echo
    /// this only when the request asked for keep-alive.
    pub fn set_keep_alive(&mut self) {
        if self.header("connection").is_none() {
            self.headers
                .push(("connection".into(), "keep-alive".into()));
        }
    }

    /// Serializes the response head + body. A `connection` header set by
    /// the caller is preserved; otherwise `connection: close` is emitted
    /// (the codec's historical one-exchange default).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let reason = match self.status {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        };
        out.reserve(128 + self.body.len());
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason);
        write_headers_and_body(out, &self.headers, &self.body);
    }
}

/// Everything after the start line, the same for both message kinds.
fn write_headers_and_body(out: &mut Vec<u8>, headers: &[(String, String)], body: &[u8]) {
    use std::io::Write as _;
    for (k, v) in headers {
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    let _ = write!(out, "content-length: {}\r\n", body.len());
    if header_of(headers, "connection").is_none() {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// `connection: keep-alive` (case-insensitive) is the only way a message
/// opts into reuse in this codec; absent or any other value means close.
fn wants_keep_alive(headers: &[(String, String)]) -> bool {
    header_of(headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
}

fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Finds the end of the head (`\r\n\r\n`), returning the offset just past
/// it.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_headers(
    lines: &mut std::str::Split<'_, &str>,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok(headers)
}

fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    match header_of(headers, "content-length") {
        None => Ok(0),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if n > MAX_BODY {
                return Err(HttpError::TooLarge);
            }
            Ok(n)
        }
    }
}

/// Parses a request head; returns the request (without body) and the
/// expected body length.
pub fn parse_request_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = start.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("missing path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported version"));
    }
    let headers = parse_headers(&mut lines)?;
    let len = content_length(&headers)?;
    Ok((
        Request {
            method,
            path,
            headers,
            body: Vec::new(),
        },
        len,
    ))
}

/// Parses a response head; returns the response (without body) and the
/// expected body length.
pub fn parse_response_head(head: &[u8]) -> Result<(Response, usize), HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = start.split_whitespace();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported version"));
    }
    let status: u16 = parts
        .next()
        .ok_or(HttpError::Malformed("missing status"))?
        .parse()
        .map_err(|_| HttpError::Malformed("bad status"))?;
    let headers = parse_headers(&mut lines)?;
    let len = content_length(&headers)?;
    Ok((
        Response {
            status,
            headers,
            body: Vec::new(),
        },
        len,
    ))
}

/// The codec's own health counters. Every message any [`Conn`] reads
/// touches one of them, so the handles are resolved once; each touch is
/// an atomic add.
struct CodecMetrics {
    requests_read: Arc<Counter>,
    responses_read: Arc<Counter>,
    read_errors: Arc<Counter>,
    timeouts: Arc<Counter>,
}

fn metrics() -> &'static CodecMetrics {
    static M: OnceLock<CodecMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pingmesh_obs::registry();
        CodecMetrics {
            requests_read: r.counter("pingmesh_httpx_requests_read_total"),
            responses_read: r.counter("pingmesh_httpx_responses_read_total"),
            read_errors: r.counter("pingmesh_httpx_read_errors_total"),
            timeouts: r.counter("pingmesh_httpx_timeouts_total"),
        }
    })
}

/// Races a codec future against `deadline`, mapping expiry to
/// [`HttpError::Timeout`] and counting it.
async fn bounded<T>(
    deadline: Duration,
    fut: impl Future<Output = Result<T, HttpError>>,
) -> Result<T, HttpError> {
    match tokio::time::timeout(deadline, fut).await {
        Ok(r) => r,
        Err(_) => {
            metrics().timeouts.inc();
            Err(HttpError::Timeout)
        }
    }
}

/// Why a one-shot [`call`] failed.
#[derive(Debug)]
pub enum CallError {
    /// The TCP connect failed outright (refused, unreachable, no address).
    Connect(std::io::Error),
    /// The named phase — `"connect"`, `"request"` or `"response"` —
    /// outlived the deadline.
    Timeout(&'static str),
    /// The exchange failed after connecting, other than by deadline.
    Http(HttpError),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Connect(e) => write!(f, "connect: {e}"),
            CallError::Timeout(phase) => write!(f, "deadline expired during {phase}"),
            CallError::Http(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CallError {}

/// One client exchange on a connection of its own: connect, write `req`,
/// read the response. Each phase gets at most `deadline`, so a
/// black-holed, stalled or slow-dripping server costs the caller three
/// deadlines at worst and never hangs it.
pub async fn call<A: std::net::ToSocketAddrs>(
    addr: A,
    req: &Request,
    deadline: Duration,
) -> Result<Response, CallError> {
    let stream = tokio::time::timeout(deadline, TcpStream::connect(addr))
        .await
        .map_err(|_| CallError::Timeout("connect"))?
        .map_err(CallError::Connect)?;
    let in_phase = |phase| {
        move |e| match e {
            HttpError::Timeout => CallError::Timeout(phase),
            other => CallError::Http(other),
        }
    };
    let mut conn = Conn::new(stream);
    conn.queue_request(req);
    conn.flush_with(deadline)
        .await
        .map_err(in_phase("request"))?;
    conn.read_response_with(deadline)
        .await
        .map_err(in_phase("response"))
}

/// How long an accept loop rests after `accept` fails. The usual cause,
/// descriptor exhaustion, does not clear by itself, so retrying at once
/// would spin a core for as long as it lasts.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Runs a TCP service on an already-bound listener until the task is
/// dropped: every accepted socket gets `TCP_NODELAY` (a response that
/// leaves in more than one segment must not wait out the peer's delayed
/// ACK) and its own spawned `handle` task. A failed `accept` is counted
/// in `pingmesh_httpx_accept_errors_total` and followed by a short pause.
/// HTTP services use [`serve`]; this is what it is built on, and what a
/// service that does not speak HTTP to its peer (the agent's TCP echo
/// responder, the chaos proxy) uses directly. The first call in a
/// process bridges the runtime's counters onto `/metrics` as
/// `pingmesh_runtime_*` gauges.
pub async fn serve_connections<H, F>(listener: TcpListener, handle: H)
where
    H: FnMut(TcpStream) -> F,
    F: Future<Output = ()> + Send + 'static,
{
    register_runtime_gauges();
    accept_loop(|| listener.accept(), handle).await
}

/// The tokio shim sits below `pingmesh-obs` and cannot register metrics
/// itself, so its counters are bridged in as callback gauges, as
/// `pingmesh_obs::registry` does for `pingmesh_types_*`.
fn register_runtime_gauges() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let r = pingmesh_obs::registry();
        r.callback_gauge("pingmesh_runtime_driver_parks", &[], || {
            tokio::diag::driver_parks() as f64
        });
        r.callback_gauge("pingmesh_runtime_wakeups_sent", &[], || {
            tokio::diag::wakeups_sent() as f64
        });
        r.callback_gauge("pingmesh_runtime_sockets", &[], || {
            tokio::diag::io_registrations() as f64
        });
        r.callback_gauge("pingmesh_runtime_timers", &[], || {
            tokio::diag::timer_entries() as f64
        });
    });
}

/// [`serve_connections`] over any source of connections, so a test can
/// make `accept` fail.
async fn accept_loop<A, AF, H, F>(mut accept: A, mut handle: H)
where
    A: FnMut() -> AF,
    AF: Future<Output = std::io::Result<(TcpStream, SocketAddr)>>,
    H: FnMut(TcpStream) -> F,
    F: Future<Output = ()> + Send + 'static,
{
    loop {
        match accept().await {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                tokio::spawn(handle(stream));
            }
            Err(_) => {
                pingmesh_obs::registry()
                    .counter("pingmesh_httpx_accept_errors_total")
                    .inc();
                tokio::time::sleep(ACCEPT_ERROR_PAUSE).await;
            }
        }
    }
}

/// Queued responses above this size flush in deadline-bounded chunks of
/// this size, so one huge body (an `/events` dump, a whole-history
/// heatmap) to a slow-draining peer can neither blow a single write
/// deadline nor wedge the connection task.
pub const CHUNKED_FLUSH_THRESHOLD: usize = 64 * 1024;

/// Runs an HTTP service on an already-bound listener until the task is
/// dropped: the one server loop, on [`serve_connections`]. Each request
/// read from a connection is answered with `respond(&request)`. A
/// request without `connection: keep-alive` gets its response and a
/// closed socket; one with it gets the header echoed and the connection
/// read again, and a pipelined burst already in the read buffer is
/// answered in full before anything is flushed, so its responses leave
/// in one write and neither side deadlocks on a full pipe. Every read
/// and write is bounded by [`DEFAULT_IO_TIMEOUT`].
pub async fn serve<R>(listener: TcpListener, respond: R)
where
    R: Fn(&Request) -> Response + Clone + Send + 'static,
{
    serve_connections(listener, |stream| {
        serve_conn(Conn::new(stream), respond.clone())
    })
    .await
}

/// One connection of [`serve`].
async fn serve_conn<S, R>(mut conn: Conn<S>, respond: R)
where
    S: AsyncRead + AsyncWrite + Unpin,
    R: Fn(&Request) -> Response,
{
    while let Ok(req) = conn.read_request().await {
        let keep = wants_keep_alive(&req.headers);
        let mut resp = respond(&req);
        if keep {
            resp.set_keep_alive();
        }
        conn.queue_response(&resp);
        if !(keep && conn.buffered_request_ready()) {
            let flushed = if conn.wbuf.len() > CHUNKED_FLUSH_THRESHOLD {
                conn.flush_chunked_with(CHUNKED_FLUSH_THRESHOLD, DEFAULT_IO_TIMEOUT)
                    .await
            } else {
                conn.flush().await
            };
            if flushed.is_err() {
                break;
            }
        }
        if !keep {
            break;
        }
    }
}

/// A buffered HTTP/1.1 connection: the codec's one reader and writer,
/// supporting keep-alive reuse and pipelining.
///
/// `Conn` owns a read buffer that preserves bytes received past the
/// parsed message for the next one, and a write buffer so a client can
/// queue a batch of pipelined requests (or [`serve`] a batch of
/// responses) and flush them in one syscall, so a burst costs one socket
/// wake-up and one write per side instead of one per message. Messages
/// serialize straight into the write buffer.
pub struct Conn<S> {
    stream: S,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl<S: AsyncRead + AsyncWrite + Unpin> Conn<S> {
    /// Wraps a stream in a buffered connection.
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            rbuf: Vec::with_capacity(4096),
            wbuf: Vec::new(),
        }
    }

    /// Reads one message — its parsed head and its body — out of the
    /// buffer, pulling more bytes from the stream as needed and preserving
    /// anything past the message for the next call.
    async fn read_buffered<H>(
        &mut self,
        parse: impl Fn(&[u8]) -> Result<(H, usize), HttpError>,
    ) -> Result<(H, Vec<u8>), HttpError> {
        let mut chunk = [0u8; 16 * 1024];
        let (head, body_len, body_start) = loop {
            if let Some(end) = head_end(&self.rbuf) {
                let (msg, len) = parse(&self.rbuf[..end])?;
                break (msg, len, end);
            }
            if self.rbuf.len() > MAX_HEAD {
                return Err(HttpError::TooLarge);
            }
            let n = self.stream.read(&mut chunk).await?;
            if n == 0 {
                return Err(HttpError::UnexpectedEof);
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        };
        while self.rbuf.len() < body_start + body_len {
            let n = self.stream.read(&mut chunk).await?;
            if n == 0 {
                return Err(HttpError::UnexpectedEof);
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
        let body = self.rbuf[body_start..body_start + body_len].to_vec();
        self.rbuf.drain(..body_start + body_len);
        Ok((head, body))
    }

    /// [`Conn::read_buffered`] within `deadline`, counted: `read` on
    /// success, `pingmesh_httpx_read_errors_total` on failure.
    async fn read_counted<H>(
        &mut self,
        deadline: Duration,
        parse: impl Fn(&[u8]) -> Result<(H, usize), HttpError>,
        read: &Counter,
    ) -> Result<(H, Vec<u8>), HttpError> {
        let out = bounded(deadline, self.read_buffered(parse)).await;
        match &out {
            Ok(_) => read.inc(),
            // The peer closing between messages is how a keep-alive
            // connection ends, not a read that failed.
            Err(HttpError::UnexpectedEof) if self.rbuf.is_empty() => {}
            Err(_) => metrics().read_errors.inc(),
        }
        out
    }

    /// Reads one request, bounded by [`DEFAULT_IO_TIMEOUT`].
    async fn read_request(&mut self) -> Result<Request, HttpError> {
        self.read_request_with(DEFAULT_IO_TIMEOUT).await
    }

    /// Reads one request within `deadline`, preserving any pipelined
    /// bytes past it.
    async fn read_request_with(&mut self, deadline: Duration) -> Result<Request, HttpError> {
        let (mut req, body) = self
            .read_counted(deadline, parse_request_head, &metrics().requests_read)
            .await?;
        req.body = body;
        Ok(req)
    }

    /// Reads one response, bounded by [`DEFAULT_IO_TIMEOUT`].
    pub async fn read_response(&mut self) -> Result<Response, HttpError> {
        self.read_response_with(DEFAULT_IO_TIMEOUT).await
    }

    /// Reads one response within `deadline`, preserving any pipelined
    /// bytes past it.
    pub async fn read_response_with(&mut self, deadline: Duration) -> Result<Response, HttpError> {
        let (mut resp, body) = self
            .read_counted(deadline, parse_response_head, &metrics().responses_read)
            .await?;
        resp.body = body;
        Ok(resp)
    }

    /// Whether a complete request is already sitting in the read buffer
    /// (no socket read needed). [`serve`] uses this to keep draining a
    /// pipelined burst before flushing responses, avoiding a
    /// write-deadlock where both sides wait on each other's flush.
    fn buffered_request_ready(&self) -> bool {
        match head_end(&self.rbuf) {
            None => false,
            Some(end) => match parse_request_head(&self.rbuf[..end]) {
                // A malformed buffered head still counts as "ready":
                // the next read_request will surface the error.
                Err(_) => true,
                Ok((_, body_len)) => self.rbuf.len() >= end + body_len,
            },
        }
    }

    /// Serializes a request into the write buffer without touching the
    /// socket. Call [`Conn::flush`] to send the batch.
    pub fn queue_request(&mut self, req: &Request) {
        req.write_to(&mut self.wbuf);
    }

    /// Serializes a response into the write buffer without touching the
    /// socket.
    fn queue_response(&mut self, resp: &Response) {
        resp.write_to(&mut self.wbuf);
    }

    /// Flushes all queued bytes, bounded by [`DEFAULT_IO_TIMEOUT`].
    pub async fn flush(&mut self) -> Result<(), HttpError> {
        self.flush_with(DEFAULT_IO_TIMEOUT).await
    }

    /// Flushes all queued bytes within `deadline` (a peer that stops
    /// draining its receive window cannot wedge the writer).
    pub async fn flush_with(&mut self, deadline: Duration) -> Result<(), HttpError> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let out = bounded(deadline, async {
            self.stream.write_all(&self.wbuf).await?;
            self.stream.flush().await?;
            Ok(())
        })
        .await;
        if out.is_ok() {
            self.wbuf.clear();
        }
        out
    }

    /// Flushes queued bytes in `chunk_bytes` segments, bounding **each
    /// segment** — not the whole batch — by `per_chunk_deadline`, for
    /// queued bodies much larger than one write deadline can cover.
    /// Framing is unchanged (`content-length`); only the writer-side
    /// deadline accounting differs. A peer that drains at any positive
    /// rate keeps the transfer alive; a stalled peer still fails within
    /// one chunk deadline.
    async fn flush_chunked_with(
        &mut self,
        chunk_bytes: usize,
        per_chunk_deadline: Duration,
    ) -> Result<(), HttpError> {
        let chunk_bytes = chunk_bytes.max(1);
        let mut off = 0;
        while off < self.wbuf.len() {
            let end = (off + chunk_bytes).min(self.wbuf.len());
            let out = bounded(per_chunk_deadline, async {
                self.stream.write_all(&self.wbuf[off..end]).await?;
                self.stream.flush().await?;
                Ok(())
            })
            .await;
            if let Err(e) = out {
                // Drop what was already on the wire; the connection is
                // poisoned for framing purposes anyway.
                self.wbuf.clear();
                return Err(e);
            }
            off = end;
        }
        self.wbuf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_via_parse() {
        let mut req = Request::post("/upload", b"hello world".to_vec());
        req.headers.push(("x-custom".into(), "1".into()));
        let bytes = req.to_bytes();
        let end = head_end(&bytes).unwrap();
        let (parsed, len) = parse_request_head(&bytes[..end]).unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/upload");
        assert_eq!(parsed.header("X-Custom"), Some("1"));
        assert_eq!(len, 11);
        assert_eq!(&bytes[end..end + len], b"hello world");
    }

    #[test]
    fn response_roundtrip_via_parse() {
        let resp = Response::ok(b"<xml/>".to_vec());
        let bytes = resp.to_bytes();
        let end = head_end(&bytes).unwrap();
        let (parsed, len) = parse_response_head(&bytes[..end]).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(len, 6);
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(parse_request_head(b"GET\r\n\r\n").is_err());
        assert!(parse_request_head(b"GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse_request_head(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(parse_response_head(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(parse_request_head(&[0xFF, 0xFE, b'\r', b'\n', b'\r', b'\n']).is_err());
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let head = format!("GET / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(
            parse_request_head(head.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn status_without_content_length_means_empty_body() {
        let (_, len) = parse_response_head(b"HTTP/1.1 404 Not Found\r\n\r\n").unwrap();
        assert_eq!(len, 0);
    }

    #[tokio::test]
    async fn async_roundtrip_over_duplex() {
        let (client, server) = tokio::io::duplex(4096);
        let client_task = tokio::spawn(async move {
            let mut client = Conn::new(client);
            client.queue_request(&Request::get("/pinglist/7"));
            client.flush().await.unwrap();
            client.read_response().await.unwrap()
        });
        let mut server = Conn::new(server);
        let got = server.read_request().await.unwrap();
        assert_eq!(got.method, "GET");
        assert_eq!(got.path, "/pinglist/7");
        server.queue_response(&Response::ok(b"<Pinglist/>".to_vec()));
        server.flush().await.unwrap();
        let resp = client_task.await.unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"<Pinglist/>");
    }

    #[tokio::test]
    async fn eof_mid_body_is_detected() {
        let (mut client, server) = tokio::io::duplex(4096);
        tokio::spawn(async move {
            client
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort")
                .await
                .unwrap();
            // client dropped here: EOF
        });
        let err = Conn::new(server).read_response().await.unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof), "{err}");
    }

    #[tokio::test]
    async fn slowloris_header_drip_hits_the_deadline() {
        // A peer dripping one header byte at a time must burn the caller's
        // deadline, not its patience: the read fails with Timeout.
        let (mut client, server) = tokio::io::duplex(64);
        let writer = tokio::spawn(async move {
            for b in b"GET / HTTP/1.1\r\nx-slow: 1\r\n".iter() {
                if client.write_all(&[*b]).await.is_err() {
                    return;
                }
                let _ = client.flush().await;
                tokio::time::sleep(Duration::from_millis(40)).await;
            }
            // Never send the terminating \r\n\r\n.
            tokio::time::sleep(Duration::from_secs(5)).await;
        });
        let t0 = std::time::Instant::now();
        let err = Conn::new(server)
            .read_request_with(Duration::from_millis(200))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(3), "must not hang");
        writer.abort();
    }

    #[tokio::test]
    async fn content_length_beyond_body_times_out_on_open_connection() {
        // The head promises 100 bytes; only 5 arrive and the connection
        // stays open. The reader must give up at its deadline.
        let (mut client, server) = tokio::io::duplex(256);
        let holder = tokio::spawn(async move {
            client
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort")
                .await
                .unwrap();
            client.flush().await.unwrap();
            // Keep the connection open (no EOF) well past the deadline.
            tokio::time::sleep(Duration::from_secs(5)).await;
        });
        let t0 = std::time::Instant::now();
        let err = Conn::new(server)
            .read_response_with(Duration::from_millis(200))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(3), "must not hang");
        holder.abort();
    }

    #[tokio::test]
    async fn content_length_beyond_body_is_eof_on_close() {
        // Same truncated body, but the peer closes: UnexpectedEof, not a
        // deadline burn.
        let (mut client, server) = tokio::io::duplex(256);
        tokio::spawn(async move {
            client
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort")
                .await
                .unwrap();
            // client drops: EOF
        });
        let err = Conn::new(server)
            .read_response_with(Duration::from_secs(5))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof), "{err}");
    }

    #[tokio::test]
    async fn oversized_head_is_rejected_at_the_boundary() {
        // A head that never terminates is cut off at MAX_HEAD with
        // TooLarge — before the deadline has to fire.
        let (mut client, server) = tokio::io::duplex(4096);
        let writer = tokio::spawn(async move {
            let junk = vec![b'a'; MAX_HEAD + 4096];
            let _ = client.write_all(b"GET / HTTP/1.1\r\nx: ").await;
            let _ = client.write_all(&junk).await;
            let _ = client.flush().await;
            tokio::time::sleep(Duration::from_secs(5)).await;
        });
        let err = Conn::new(server)
            .read_request_with(Duration::from_secs(5))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::TooLarge), "{err}");
        writer.abort();
    }

    #[tokio::test]
    async fn oversized_body_is_rejected_at_the_boundary() {
        // content-length over MAX_BODY is rejected from the head alone,
        // without reading (or allocating) the body.
        let (mut client, server) = tokio::io::duplex(4096);
        let head = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        tokio::spawn(async move {
            let _ = client.write_all(head.as_bytes()).await;
        });
        let err = Conn::new(server)
            .read_response_with(Duration::from_secs(5))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::TooLarge), "{err}");
    }

    #[tokio::test]
    async fn fragmented_delivery_is_reassembled() {
        let (client, server) = tokio::io::duplex(8);
        let body = vec![b'x'; 300];
        let sent_body = body.clone();
        tokio::spawn(async move {
            // duplex with a tiny buffer forces many partial reads.
            let mut client = Conn::new(client);
            client.queue_response(&Response::ok(sent_body));
            client.flush().await.unwrap();
        });
        let got = Conn::new(server).read_response().await.unwrap();
        assert_eq!(got.body, body);
    }

    #[test]
    fn connection_header_is_preserved_not_duplicated() {
        let mut req = Request::get("/x");
        req.set_keep_alive();
        assert!(wants_keep_alive(&req.headers));
        let bytes = req.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("connection: close"), "{text}");
        // Absent header still means close.
        let plain = String::from_utf8(Request::get("/y").to_bytes()).unwrap();
        assert!(plain.contains("connection: close\r\n"), "{plain}");
        // Responses behave the same way.
        let mut resp = Response::ok(b"v".to_vec());
        resp.set_keep_alive();
        let text = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("connection: close"), "{text}");
    }

    #[test]
    fn not_modified_has_empty_body_and_etag() {
        let resp = Response::not_modified("\"abc123\"");
        assert_eq!(resp.status, 304);
        assert!(resp.body.is_empty());
        assert_eq!(resp.header("etag"), Some("\"abc123\""));
        let (parsed, len) = {
            let bytes = resp.to_bytes();
            let end = head_end(&bytes).unwrap();
            parse_response_head(&bytes[..end]).unwrap()
        };
        assert_eq!(parsed.status, 304);
        assert_eq!(len, 0);
    }

    fn echo_path(req: &Request) -> Response {
        Response::ok(format!("echo:{}", req.path).into_bytes())
    }

    /// [`serve`] answering [`echo_path`] on a loopback port.
    async fn serve_echo() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(serve(listener, echo_path));
        addr
    }

    #[tokio::test]
    async fn keep_alive_serial_reuse_over_one_stream() {
        // Many serial request/response exchanges over a single socket —
        // the whole point of the Conn buffer — and each message read, on
        // either side, counted.
        let m = metrics();
        let (requests, responses) = (m.requests_read.get(), m.responses_read.get());
        let mut conn = Conn::new(TcpStream::connect(serve_echo().await).await.unwrap());
        for i in 0..32 {
            let mut req = Request::get(&format!("/q/{i}"));
            req.set_keep_alive();
            conn.queue_request(&req);
            conn.flush().await.unwrap();
            let resp = conn.read_response().await.unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("echo:/q/{i}").into_bytes());
            assert!(wants_keep_alive(&resp.headers));
        }
        // Other tests of this process read messages too, hence `>=`.
        assert!(m.requests_read.get() - requests >= 32);
        assert!(m.responses_read.get() - responses >= 32);
    }

    #[tokio::test]
    async fn pipelined_burst_is_served_in_order() {
        // Queue a burst of requests, flush once, read all responses in
        // order. The server drains buffered requests before flushing so
        // neither side deadlocks on a full pipe.
        const BURST: usize = 64;
        let (client, server) = tokio::io::duplex(64 * 1024);
        tokio::spawn(serve_conn(Conn::new(server), echo_path));
        let mut conn = Conn::new(client);
        for i in 0..BURST {
            let mut req = Request::get(&format!("/p/{i}"));
            req.set_keep_alive();
            conn.queue_request(&req);
        }
        conn.flush().await.unwrap();
        for i in 0..BURST {
            let resp = conn.read_response().await.unwrap();
            assert_eq!(
                resp.body,
                format!("echo:/p/{i}").into_bytes(),
                "order at {i}"
            );
        }
    }

    #[tokio::test]
    async fn request_without_keep_alive_gets_one_response_and_a_closed_socket() {
        // What a controller or `/ping` client sees.
        let addr = serve_echo().await;
        let mut conn = Conn::new(TcpStream::connect(addr).await.unwrap());
        conn.queue_request(&Request::get("/once"));
        conn.flush().await.unwrap();
        let resp = conn.read_response().await.unwrap();
        assert_eq!(resp.body, b"echo:/once");
        assert_eq!(resp.header("connection"), Some("close"));
        let err = conn.read_response().await.unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof), "{err}");
    }

    #[tokio::test]
    async fn large_response_reaches_a_slow_reader_through_the_chunked_path() {
        // 256 KiB through a 512-byte pipe, then the connection is reused.
        let body = vec![b'q'; 4 * CHUNKED_FLUSH_THRESHOLD];
        let sent = body.clone();
        let (client, server) = tokio::io::duplex(512);
        tokio::spawn(serve_conn(
            Conn::new(server),
            move |req: &Request| match req.path.as_str() {
                "/big" => Response::ok(sent.clone()),
                _ => echo_path(req),
            },
        ));
        let mut conn = Conn::new(client);
        for (path, want) in [("/big", body), ("/after", b"echo:/after".to_vec())] {
            let mut req = Request::get(path);
            req.set_keep_alive();
            conn.queue_request(&req);
            conn.flush().await.unwrap();
            let resp = conn.read_response().await.unwrap();
            assert!(resp.body == want, "{path}: body must arrive intact");
            assert!(wants_keep_alive(&resp.headers));
        }
    }

    #[test]
    fn messages_queue_as_their_to_bytes_and_the_wire_format_is_pinned() {
        let mut resp = Response::ok(b"hi".to_vec());
        resp.headers.push(("x-a".into(), "1".into()));
        let mut req = Request::post("/u", b"body".to_vec());
        req.set_keep_alive();
        let (stream, _peer) = tokio::io::duplex(64);
        let mut conn = Conn::new(stream);
        conn.queue_response(&resp);
        conn.queue_request(&req);
        assert_eq!(conn.wbuf, [resp.to_bytes(), req.to_bytes()].concat());
        assert_eq!(
            String::from_utf8(conn.wbuf).unwrap(),
            "HTTP/1.1 200 OK\r\nx-a: 1\r\ncontent-length: 2\r\nconnection: close\r\n\r\nhi\
             POST /u HTTP/1.1\r\nconnection: keep-alive\r\ncontent-length: 4\r\n\r\nbody"
        );
    }

    #[tokio::test]
    async fn pipelined_bodies_split_across_reads_survive() {
        // Two POSTs written as one byte blob, delivered through a tiny
        // pipe so message boundaries never align with read boundaries.
        let (mut client, server) = tokio::io::duplex(16);
        let mut blob = Vec::new();
        let mut a = Request::post("/a", vec![b'a'; 700]);
        a.set_keep_alive();
        let mut b = Request::post("/b", vec![b'b'; 13]);
        b.set_keep_alive();
        blob.extend_from_slice(&a.to_bytes());
        blob.extend_from_slice(&b.to_bytes());
        let writer = tokio::spawn(async move {
            client.write_all(&blob).await.unwrap();
            client.flush().await.unwrap();
            tokio::time::sleep(Duration::from_secs(5)).await; // hold open
        });
        let mut conn = Conn::new(server);
        let got_a = conn.read_request().await.unwrap();
        assert_eq!(got_a.path, "/a");
        assert_eq!(got_a.body, vec![b'a'; 700]);
        let got_b = conn.read_request().await.unwrap();
        assert_eq!(got_b.path, "/b");
        assert_eq!(got_b.body, vec![b'b'; 13]);
        writer.abort();
    }

    #[tokio::test]
    async fn slowloris_second_request_hits_deadline_not_corruption() {
        // First request completes; the second drips and stalls. The
        // keep-alive reader must time out on its own deadline, and the
        // first exchange must already have succeeded untouched.
        let (mut client, server) = tokio::io::duplex(4096);
        let writer = tokio::spawn(async move {
            let mut req = Request::get("/fast");
            req.set_keep_alive();
            client.write_all(&req.to_bytes()).await.unwrap();
            client.flush().await.unwrap();
            // Drip a partial second head, then stall forever.
            client.write_all(b"GET /slow HTTP/1.1\r\nx:").await.unwrap();
            client.flush().await.unwrap();
            tokio::time::sleep(Duration::from_secs(10)).await;
        });
        let mut conn = Conn::new(server);
        let first = conn.read_request().await.unwrap();
        assert_eq!(first.path, "/fast");
        let t0 = std::time::Instant::now();
        let err = conn
            .read_request_with(Duration::from_millis(150))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(3), "must not hang");
        writer.abort();
    }

    #[tokio::test]
    async fn chunked_write_survives_where_single_deadline_cannot() {
        // A reader draining slowly through a tiny pipe: a single 80ms
        // deadline on the whole ~256KB message fails, while per-chunk
        // deadlines succeed and the body round-trips intact.
        let body = vec![b'z'; 256 * 1024];
        let mut resp = Response::ok(body.clone());
        resp.set_keep_alive();

        // Single-deadline write: the pipe backs up and the deadline
        // covers the entire message — it must time out.
        let (wtx, mut wrx) = tokio::io::duplex(512);
        let reader = tokio::spawn(async move {
            // Drain slowly: small reads with pauses.
            let mut chunk = [0u8; 256];
            loop {
                match wrx.read(&mut chunk).await {
                    Ok(0) | Err(_) => break,
                    Ok(_) => tokio::time::sleep(Duration::from_millis(2)).await,
                }
            }
        });
        let mut conn = Conn::new(wtx);
        conn.queue_response(&resp);
        let err = conn
            .flush_with(Duration::from_millis(80))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        reader.abort();

        // Chunked write with a budget per 8KB segment: the slow drain
        // keeps every segment under its own deadline.
        let (ctx, crx) = tokio::io::duplex(512);
        let reader = tokio::spawn(async move { Conn::new(crx).read_response().await });
        let mut conn = Conn::new(ctx);
        conn.queue_response(&resp);
        conn.flush_chunked_with(8 * 1024, Duration::from_secs(5))
            .await
            .unwrap();
        assert!(conn.wbuf.is_empty());
        let got = reader.await.unwrap().unwrap();
        assert_eq!(got.body, body, "chunked body must round-trip intact");
        assert!(wants_keep_alive(&got.headers));
    }

    #[tokio::test]
    async fn chunked_write_still_fails_against_fully_stalled_peer() {
        let (tx, _rx) = tokio::io::duplex(512);
        // _rx never read: pipe fills, every further segment stalls.
        let mut conn = Conn::new(tx);
        conn.queue_response(&Response::ok(vec![b'z'; 64 * 1024]));
        let t0 = std::time::Instant::now();
        let err = conn
            .flush_chunked_with(8 * 1024, Duration::from_millis(100))
            .await
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "fails within one chunk deadline"
        );
    }

    /// A blocking std client that leaves delayed ACKs on (no
    /// `TCP_QUICKACK`), one request at a time over one connection.
    fn std_client_round_trips(addr: SocketAddr, n: usize, body_len: usize) -> Vec<Duration> {
        use std::io::{Read, Write};
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        let mut req = Request::get("/");
        req.set_keep_alive();
        let req = req.to_bytes();
        let mut buf = vec![0u8; 64 * 1024];
        (0..n)
            .map(|_| {
                let t0 = std::time::Instant::now();
                sock.write_all(&req).unwrap();
                let mut got = Vec::new();
                let total = loop {
                    let n = sock.read(&mut buf).unwrap();
                    assert!(n > 0, "server closed");
                    got.extend_from_slice(&buf[..n]);
                    if let Some(end) = head_end(&got) {
                        break end + body_len;
                    }
                };
                while got.len() < total {
                    let n = sock.read(&mut buf).unwrap();
                    assert!(n > 0, "server closed");
                    got.extend_from_slice(&buf[..n]);
                }
                t0.elapsed()
            })
            .collect()
    }

    #[tokio::test]
    async fn response_sent_in_two_writes_does_not_wait_out_a_delayed_ack() {
        // Head and body leave as two short segments — what a server does
        // whenever a pipelined burst reaches it in two reads. Without
        // NODELAY, Nagle holds the second until the first is ACKed, and a
        // client with nothing to send delays that ACK by 40 ms.
        const BODY: usize = 10;
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(serve_connections(listener, |stream| async move {
            let mut conn = Conn::new(stream);
            while conn.read_request().await.is_ok() {
                let mut resp = Response::ok(vec![b'z'; BODY]);
                resp.set_keep_alive();
                let bytes = resp.to_bytes();
                let (head, body) = bytes.split_at(bytes.len() - BODY);
                let sock = &mut conn.stream;
                if sock.write_all(head).await.is_err() || sock.write_all(body).await.is_err() {
                    return;
                }
            }
        }));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(std_client_round_trips(addr, 30, BODY)));
        let mut rtts = loop {
            match rx.try_recv() {
                Ok(rtts) => break rtts,
                Err(_) => tokio::time::sleep(Duration::from_millis(5)).await,
            }
        };
        server.abort();
        rtts.sort();
        let median = rtts[rtts.len() / 2];
        assert!(
            median < Duration::from_millis(15),
            "median round trip {median:?}; a 40 ms floor is the delayed-ACK stall"
        );
    }

    #[tokio::test]
    async fn failing_accept_rests_between_attempts() {
        let errors = pingmesh_obs::registry().counter("pingmesh_httpx_accept_errors_total");
        let before = errors.get();
        let mut attempts = 0u64;
        let exhausted = || {
            attempts += 1;
            // EMFILE: what `accept` returns until descriptors are freed.
            std::future::ready(Err(std::io::Error::from_raw_os_error(24)))
        };
        let serve = accept_loop(exhausted, |_stream| async {});
        assert!(tokio::time::timeout(Duration::from_millis(200), serve)
            .await
            .is_err());
        assert!(
            (2..=25).contains(&attempts),
            "{attempts} attempts in 200 ms"
        );
        assert!(errors.get() - before >= attempts - 1);
    }
}
