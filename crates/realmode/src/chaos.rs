//! A dependency-free fault-injecting TCP proxy for chaos drills.
//!
//! [`ChaosProxy`] interposes on localhost between the agents and a
//! controller or collector endpoint and injects scripted "toxics" —
//! the failure modes a real data-center control plane exhibits and that
//! the paper's always-on design (§3.3.2, §3.4.2, §3.5) must survive:
//!
//! * [`Toxic::Refuse`] — accept, then slam the connection shut (a
//!   crashed service whose port is still bound, or an LB draining a
//!   dead backend);
//! * [`Toxic::Stall`] — accept and then forward *nothing* (slowloris /
//!   a wedged process holding sockets open). The only defence is a
//!   client-side deadline;
//! * [`Toxic::Latency`] — fixed plus seeded-jitter delay before the
//!   response bytes flow;
//! * [`Toxic::Truncate`] — forward only a prefix of the response body,
//!   then half-close (a mid-transfer crash);
//! * [`Toxic::Reset`] — forward a prefix, then tear the whole
//!   connection down abruptly (under the std socket API this surfaces
//!   to the client as an EOF/It close mid-body, the closest portable
//!   approximation of an RST);
//! * [`Toxic::Flaky`] — apply an inner toxic to a seeded-deterministic
//!   subset of connections (per-mille probability).
//!
//! The active toxic is swappable at runtime through [`ChaosHandle`], so a
//! drill script can kill, degrade, and restore an endpoint mid-run. With
//! a fixed seed the proxy's probabilistic decisions are a pure function
//! of the connection order, keeping drills reproducible.

use parking_lot::Mutex;
use pingmesh_types::backoff::{next_u64, seed_state};
use std::net::{Shutdown, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{OwnedReadHalf, OwnedWriteHalf, TcpListener, TcpStream};

/// Cadence at which a stalled connection re-checks whether the stall has
/// been lifted (so "restore" unblocks held sockets promptly).
const STALL_POLL: Duration = Duration::from_millis(20);
/// Hard ceiling on how long a stalled connection is held; a safety net so
/// an abandoned proxy cannot accumulate sockets forever.
const STALL_MAX: Duration = Duration::from_secs(30);

/// One injectable fault. See the module docs for the taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Toxic {
    /// Transparent pass-through (the healthy state).
    Pass,
    /// Accept, then immediately close the connection.
    Refuse,
    /// Accept and hold the connection open, forwarding nothing, until the
    /// toxic is changed (or a hard internal ceiling).
    Stall,
    /// Delay the response by `delay` plus a seeded jitter in
    /// `[0, jitter]`, then forward normally.
    Latency {
        /// Fixed component of the injected delay.
        delay: Duration,
        /// Upper bound of the uniformly drawn jitter component.
        jitter: Duration,
    },
    /// Forward only the first `after` response bytes, then half-close
    /// the client connection (clean FIN, short body).
    Truncate {
        /// Response bytes forwarded before the cut.
        after: usize,
    },
    /// Forward only the first `after` response bytes, then shut the
    /// connection down in both directions mid-body.
    Reset {
        /// Response bytes forwarded before the teardown.
        after: usize,
    },
    /// Apply `toxic` to roughly `permille`/1000 of connections (decided
    /// per-connection by the proxy's seeded generator), pass the rest.
    Flaky {
        /// Probability of applying the inner toxic, in per-mille.
        permille: u16,
        /// The fault injected when the roll hits.
        toxic: Box<Toxic>,
    },
}

impl Toxic {
    /// Short static label for metrics (bounded cardinality).
    fn kind(&self) -> &'static str {
        match self {
            Toxic::Pass => "pass",
            Toxic::Refuse => "refuse",
            Toxic::Stall => "stall",
            Toxic::Latency { .. } => "latency",
            Toxic::Truncate { .. } => "truncate",
            Toxic::Reset { .. } => "reset",
            Toxic::Flaky { .. } => "flaky",
        }
    }
}

struct ChaosState {
    toxic: Mutex<Toxic>,
    rng: Mutex<u64>,
    connections: AtomicU64,
    injected: AtomicU64,
}

/// Runtime control surface of a [`ChaosProxy`] (cheaply cloneable).
#[derive(Clone)]
pub struct ChaosHandle {
    state: Arc<ChaosState>,
}

impl ChaosHandle {
    /// Swaps the active toxic; applies to connections accepted from now
    /// on, and lifts an in-progress [`Toxic::Stall`] hold.
    pub fn set_toxic(&self, toxic: Toxic) {
        pingmesh_obs::registry()
            .counter_with("pingmesh_chaos_toxic_set_total", &[("kind", toxic.kind())])
            .inc();
        pingmesh_obs::emit!(Info, "realmode.chaos", "toxic_set", "kind" => toxic.kind());
        *self.state.toxic.lock() = toxic;
    }

    /// The currently active toxic.
    pub fn toxic(&self) -> Toxic {
        self.state.toxic.lock().clone()
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.state.connections.load(Ordering::Relaxed)
    }

    /// Connections that had a fault injected (anything but pass-through).
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }
}

/// A fault-injecting TCP proxy bound on localhost in front of `upstream`.
pub struct ChaosProxy {
    addr: SocketAddr,
    handle: ChaosHandle,
    accept_task: tokio::task::JoinHandle<()>,
}

impl ChaosProxy {
    /// Binds a fresh localhost port and starts proxying to `upstream`
    /// with [`Toxic::Pass`] active. `seed` drives every probabilistic
    /// decision the proxy makes (jitter draws, flaky rolls).
    pub async fn start(upstream: SocketAddr, seed: u64) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0").await?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ChaosState {
            toxic: Mutex::new(Toxic::Pass),
            rng: Mutex::new(seed_state(seed)),
            connections: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        });
        let handle = ChaosHandle {
            state: state.clone(),
        };
        let accept_task =
            tokio::spawn(pingmesh_httpx::serve_connections(listener, move |client| {
                handle_conn(state.clone(), client, upstream)
            }));
        Ok(ChaosProxy {
            addr,
            handle,
            accept_task,
        })
    }

    /// The proxy's listening address (point clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The runtime control handle.
    pub fn handle(&self) -> &ChaosHandle {
        &self.handle
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        // Stop accepting; in-flight connection tasks finish on their own.
        self.accept_task.abort();
    }
}

/// Resolves the *effective* toxic for one connection: unwraps
/// [`Toxic::Flaky`] by rolling the seeded generator.
fn effective_toxic(state: &ChaosState) -> Toxic {
    let snapshot = state.toxic.lock().clone();
    match snapshot {
        Toxic::Flaky { permille, toxic } => {
            let roll = next_u64(&mut state.rng.lock()) % 1000;
            if roll < u64::from(permille) {
                *toxic
            } else {
                Toxic::Pass
            }
        }
        other => other,
    }
}

async fn handle_conn(state: Arc<ChaosState>, client: TcpStream, upstream: SocketAddr) {
    state.connections.fetch_add(1, Ordering::Relaxed);
    let toxic = effective_toxic(&state);
    let registry = pingmesh_obs::registry();
    if toxic != Toxic::Pass {
        state.injected.fetch_add(1, Ordering::Relaxed);
        registry
            .counter_with(
                "pingmesh_chaos_faults_injected_total",
                &[("kind", toxic.kind())],
            )
            .inc();
    }
    match toxic {
        Toxic::Refuse => {
            let _ = client.shutdown_now(Shutdown::Both);
            // dropped: the client sees an immediate close
        }
        Toxic::Stall => {
            // Hold the socket open and forward nothing. The client's only
            // way out is its own deadline — exactly what the drill
            // verifies. Lifting the stall (or the ceiling) drops the
            // connection so "restore" unsticks everything promptly.
            let held_under = state.toxic.lock().clone();
            let t0 = std::time::Instant::now();
            while *state.toxic.lock() == held_under && t0.elapsed() < STALL_MAX {
                tokio::time::sleep(STALL_POLL).await;
            }
            let _ = client.shutdown_now(Shutdown::Both);
        }
        Toxic::Pass => proxy_through(client, upstream, None, None, false).await,
        Toxic::Latency { delay, jitter } => {
            let extra = if jitter.is_zero() {
                Duration::ZERO
            } else {
                let micros = jitter.as_micros() as u64;
                Duration::from_micros(next_u64(&mut state.rng.lock()) % (micros + 1))
            };
            proxy_through(client, upstream, Some(delay + extra), None, false).await;
        }
        Toxic::Truncate { after } => {
            proxy_through(client, upstream, None, Some(after), false).await
        }
        Toxic::Reset { after } => proxy_through(client, upstream, None, Some(after), true).await,
        Toxic::Flaky { .. } => unreachable!("unwrapped by effective_toxic"),
    }
}

/// Connects upstream and pumps bytes both ways. `response_delay` is slept
/// before the first upstream→client chunk; `response_budget` caps the
/// upstream→client bytes, after which the client connection is
/// half-closed (`abrupt == false`) or fully torn down (`abrupt == true`).
async fn proxy_through(
    client: TcpStream,
    upstream: SocketAddr,
    response_delay: Option<Duration>,
    response_budget: Option<usize>,
    abrupt: bool,
) {
    let upstream =
        match tokio::time::timeout(Duration::from_secs(5), TcpStream::connect(upstream)).await {
            Ok(Ok(s)) => s,
            _ => {
                let _ = client.shutdown_now(Shutdown::Both);
                return;
            }
        };
    let (cr, cw) = client.into_split();
    let (ur, uw) = upstream.into_split();
    // Request direction: client → upstream, unmodified.
    let request_pump = tokio::spawn(async move {
        let _ = pump(cr, uw, None).await;
    });
    // Response direction: upstream → client, where the toxics bite.
    if let Some(d) = response_delay {
        tokio::time::sleep(d).await;
    }
    let (cw, exhausted) = pump(ur, cw, response_budget).await;
    let _ = cw.shutdown_now(if abrupt && exhausted {
        Shutdown::Both
    } else {
        Shutdown::Write
    });
    // The shutdown above unblocks the request pump (same fd) if the
    // teardown was abrupt; otherwise it ends when either side closes.
    let _ = request_pump.await;
}

/// Copies bytes from `r` to `w` until EOF, error, or `budget` exhaustion.
/// Returns the writer (so the caller can shut it down) and whether the
/// budget ran out.
async fn pump(
    mut r: OwnedReadHalf,
    mut w: OwnedWriteHalf,
    budget: Option<usize>,
) -> (OwnedWriteHalf, bool) {
    let mut remaining = budget;
    let mut chunk = [0u8; 4096];
    loop {
        let n = match r.read(&mut chunk).await {
            Ok(0) | Err(_) => return (w, false),
            Ok(n) => n,
        };
        let allowed = match remaining {
            None => n,
            Some(rem) => n.min(rem),
        };
        if allowed > 0 && w.write_all(&chunk[..allowed]).await.is_err() {
            return (w, false);
        }
        if let Some(rem) = &mut remaining {
            *rem -= allowed;
            if *rem == 0 {
                return (w, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_httpx::{call, CallError, HttpError, Request, Response};

    /// An HTTP upstream answering every request with `body`.
    async fn upstream_server(body: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(pingmesh_httpx::serve(listener, move |_req| {
            Response::ok(body.clone())
        }));
        addr
    }

    async fn get_via(addr: SocketAddr, deadline: Duration) -> Result<Response, CallError> {
        call(addr, &Request::get("/x"), deadline).await
    }

    #[tokio::test]
    async fn pass_through_is_transparent() {
        let up = upstream_server(b"hello".to_vec()).await;
        let proxy = ChaosProxy::start(up, 1).await.unwrap();
        let resp = get_via(proxy.addr(), Duration::from_secs(5)).await.unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hello");
        assert_eq!(proxy.handle().connections(), 1);
        assert_eq!(proxy.handle().injected(), 0);
    }

    #[tokio::test]
    async fn refuse_fails_fast_not_slow() {
        let up = upstream_server(b"hello".to_vec()).await;
        let proxy = ChaosProxy::start(up, 1).await.unwrap();
        proxy.handle().set_toxic(Toxic::Refuse);
        let t0 = std::time::Instant::now();
        let err = get_via(proxy.addr(), Duration::from_secs(5)).await;
        assert!(err.is_err(), "refused connection must error");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "refusal must be prompt, not a deadline burn"
        );
        assert_eq!(proxy.handle().injected(), 1);
    }

    #[tokio::test]
    async fn stall_burns_exactly_the_deadline() {
        let up = upstream_server(b"hello".to_vec()).await;
        let proxy = ChaosProxy::start(up, 1).await.unwrap();
        proxy.handle().set_toxic(Toxic::Stall);
        let t0 = std::time::Instant::now();
        let err = get_via(proxy.addr(), Duration::from_millis(300)).await;
        assert!(matches!(err, Err(CallError::Timeout(_))), "{err:?}");
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(250), "{elapsed:?}");
        assert!(elapsed < Duration::from_secs(3), "{elapsed:?}");
        // Restoring lifts the stall and new connections flow again.
        proxy.handle().set_toxic(Toxic::Pass);
        let resp = get_via(proxy.addr(), Duration::from_secs(5)).await.unwrap();
        assert_eq!(resp.body, b"hello");
    }

    #[tokio::test]
    async fn latency_delays_but_delivers() {
        let up = upstream_server(b"hello".to_vec()).await;
        let proxy = ChaosProxy::start(up, 99).await.unwrap();
        proxy.handle().set_toxic(Toxic::Latency {
            delay: Duration::from_millis(150),
            jitter: Duration::from_millis(50),
        });
        let t0 = std::time::Instant::now();
        let resp = get_via(proxy.addr(), Duration::from_secs(5)).await.unwrap();
        assert_eq!(resp.body, b"hello");
        assert!(t0.elapsed() >= Duration::from_millis(150));
    }

    #[tokio::test]
    async fn truncate_yields_short_body_error() {
        let up = upstream_server(vec![b'x'; 4096]).await;
        let proxy = ChaosProxy::start(up, 1).await.unwrap();
        // Cut after 64 bytes — inside the response (head alone is bigger
        // than nothing but the body certainly doesn't fit).
        proxy.handle().set_toxic(Toxic::Truncate { after: 64 });
        let err = get_via(proxy.addr(), Duration::from_secs(5)).await;
        assert!(
            matches!(
                err,
                Err(CallError::Http(
                    HttpError::UnexpectedEof | HttpError::Malformed(_)
                ))
            ),
            "truncated response must not parse: {err:?}"
        );
    }

    #[tokio::test]
    async fn reset_mid_body_errors_promptly() {
        let up = upstream_server(vec![b'y'; 8192]).await;
        let proxy = ChaosProxy::start(up, 1).await.unwrap();
        proxy.handle().set_toxic(Toxic::Reset { after: 100 });
        let t0 = std::time::Instant::now();
        let err = get_via(proxy.addr(), Duration::from_secs(5)).await;
        assert!(err.is_err(), "reset connection must error");
        assert!(t0.elapsed() < Duration::from_secs(3), "must fail fast");
    }

    #[tokio::test]
    async fn flaky_is_deterministic_under_a_fixed_seed() {
        async fn run_trial(seed: u64) -> Vec<bool> {
            let up = upstream_server(b"ok".to_vec()).await;
            let proxy = ChaosProxy::start(up, seed).await.unwrap();
            proxy.handle().set_toxic(Toxic::Flaky {
                permille: 400,
                toxic: Box::new(Toxic::Refuse),
            });
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(get_via(proxy.addr(), Duration::from_secs(2)).await.is_ok());
            }
            outcomes
        }
        let a = run_trial(7).await;
        let b = run_trial(7).await;
        let c = run_trial(8).await;
        assert_eq!(a, b, "same seed ⇒ same fault schedule");
        assert!(a.iter().any(|ok| *ok), "some connections must pass");
        assert!(a.iter().any(|ok| !*ok), "some connections must fail");
        // Not a hard guarantee in general, but with 20 draws at p=0.4 two
        // different seeds colliding exactly is effectively impossible.
        assert_ne!(a, c, "different seeds ⇒ different schedules");
    }
}
