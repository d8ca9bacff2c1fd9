//! The Controller's RESTful web service (real-socket mode).
//!
//! "The files are then stored in SSD and served to the servers via a
//! Pingmesh Web service. The Pingmesh Controller provides a simple
//! RESTful Web API for the Pingmesh Agents to retrieve their Pinglist
//! files respectively. The Pingmesh Agents need to periodically ask the
//! Controller for Pinglist files and the Pingmesh Controller does not
//! push any data to the Pingmesh Agents. By doing so, Pingmesh Controller
//! becomes stateless and easy to scale." (§3.3.2)
//!
//! Endpoints:
//!
//! * `GET /pinglist/<server-id>` → `200` with the Pinglist XML, `404` if
//!   the server id is unknown, `503` if no pinglists are loaded.
//! * `GET /health` → `200 ok` (the SLB's health probe).
//!
//! The service holds the current generation's inputs, a
//! [`PinglistSource`], behind a `parking_lot` `RwLock`, and generates the
//! asking server's list per request; a generation swap is one pointer
//! store.

use crate::genalgo::PinglistSource;
use crate::xml;
use parking_lot::RwLock;
use pingmesh_httpx::{CallError, Response};
use pingmesh_types::{Pinglist, PingmeshError, ServerId};
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::net::TcpListener;

/// Shared state of the controller web service.
#[derive(Debug, Default)]
pub struct WebState {
    lists: RwLock<Option<Arc<PinglistSource>>>,
}

impl WebState {
    /// Creates empty state (no pinglists loaded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically installs a new pinglist generation. Sampled entries are
    /// armed for provenance tracing (wall-clock stamps — real-socket mode
    /// has no shared virtual clock).
    pub fn set_pinglists(&self, source: PinglistSource) {
        pingmesh_obs::trace::arm_from_pinglists(source.lists(), None);
        *self.lists.write() = Some(Arc::new(source));
    }

    /// Removes all pinglists (fleet stop switch).
    pub fn clear_pinglists(&self) {
        *self.lists.write() = None;
    }

    /// Serves one request path, returning the HTTP response. Pure —
    /// directly unit-testable without sockets.
    pub fn respond(&self, method: &str, path: &str) -> Response {
        let route = if path == "/health" {
            "health"
        } else if path.starts_with("/pinglist/") {
            "pinglist"
        } else {
            "other"
        };
        pingmesh_obs::registry()
            .counter_with(
                "pingmesh_controller_web_requests_total",
                &[("route", route)],
            )
            .inc();
        if method != "GET" {
            return Response::not_found();
        }
        if path == "/health" {
            return Response::ok(b"ok".to_vec());
        }
        if let Some(id) = path.strip_prefix("/pinglist/") {
            let Ok(id) = id.parse::<u32>() else {
                return Response::not_found();
            };
            let Some(source) = self.lists.read().clone() else {
                return Response::unavailable();
            };
            return match source.for_server(ServerId(id)) {
                Some(pl) => {
                    let mut resp = Response::ok(xml::to_xml(&pl).into_bytes());
                    resp.headers
                        .push(("content-type".into(), "application/xml".into()));
                    resp
                }
                None => Response::not_found(),
            };
        }
        Response::not_found()
    }
}

/// Runs the controller web service on an already-bound listener until the
/// task is dropped. Agents poll rarely and ask for one pinglist at a time,
/// so in practice each connection carries one request.
pub async fn serve(listener: TcpListener, state: Arc<WebState>) {
    pingmesh_httpx::serve(listener, move |req| state.respond(&req.method, &req.path)).await
}

/// Agent-side client: fetches the pinglist for `server` from a controller
/// (or SLB VIP) address. `Ok(None)` means the controller answered but has
/// no pinglist for us — the agent must fail-close. Every phase (connect,
/// write, read) is bounded by the httpx default deadline.
pub async fn fetch_pinglist(
    addr: SocketAddr,
    server: ServerId,
) -> Result<Option<Pinglist>, PingmeshError> {
    fetch_pinglist_with(addr, server, pingmesh_httpx::DEFAULT_IO_TIMEOUT).await
}

/// Like [`fetch_pinglist`], with an explicit per-phase `deadline`:
/// connect, request write, and response read each get at most `deadline`,
/// so one stalled controller socket can never hang an agent. A deadline
/// expiry surfaces as [`PingmeshError::Timeout`], anything else about an
/// unreachable replica as [`PingmeshError::ControllerUnavailable`].
pub async fn fetch_pinglist_with(
    addr: SocketAddr,
    server: ServerId,
    deadline: std::time::Duration,
) -> Result<Option<Pinglist>, PingmeshError> {
    let req = pingmesh_httpx::Request::get(&format!("/pinglist/{}", server.0));
    let resp = pingmesh_httpx::call(addr, &req, deadline)
        .await
        .map_err(|e| match e {
            CallError::Timeout(phase) => {
                PingmeshError::Timeout(format!("pinglist {phase}, controller {addr}"))
            }
            other => PingmeshError::ControllerUnavailable(other.to_string()),
        })?;
    match resp.status {
        200 => {
            let text = String::from_utf8(resp.body)
                .map_err(|_| PingmeshError::Parse("non-utf8 pinglist".into()))?;
            Ok(Some(xml::from_xml(&text)?))
        }
        404 | 503 => Ok(None),
        s => Err(PingmeshError::ControllerUnavailable(format!("status {s}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genalgo::{GeneratorConfig, PinglistGenerator};
    use pingmesh_topology::{Topology, TopologySpec};

    fn state_with_lists() -> Arc<WebState> {
        let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
        let generator = PinglistGenerator::new(GeneratorConfig::default());
        let state = Arc::new(WebState::new());
        state.set_pinglists(PinglistSource::new(topo, generator, 3));
        state
    }

    #[test]
    fn respond_health() {
        let state = WebState::new();
        let r = state.respond("GET", "/health");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn respond_pinglist_and_errors() {
        let state = state_with_lists();
        let ok = state.respond("GET", "/pinglist/0");
        assert_eq!(ok.status, 200);
        assert!(String::from_utf8(ok.body).unwrap().contains("<Pinglist"));
        assert_eq!(state.respond("GET", "/pinglist/99999").status, 404);
        assert_eq!(state.respond("GET", "/pinglist/abc").status, 404);
        assert_eq!(state.respond("GET", "/nope").status, 404);
        assert_eq!(state.respond("POST", "/pinglist/0").status, 404);
    }

    #[test]
    fn respond_unavailable_without_lists() {
        let state = WebState::new();
        assert_eq!(state.respond("GET", "/pinglist/0").status, 503);
        let populated = state_with_lists();
        populated.clear_pinglists();
        assert_eq!(populated.respond("GET", "/pinglist/0").status, 503);
    }

    #[tokio::test]
    async fn end_to_end_fetch_over_real_sockets() {
        let state = state_with_lists();
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(serve(listener, state));

        let pl = fetch_pinglist(addr, ServerId(1)).await.unwrap().unwrap();
        assert_eq!(pl.server, ServerId(1));
        assert!(!pl.entries.is_empty());

        // Unknown server: Ok(None) → fail-closed signal for the agent.
        let none = fetch_pinglist(addr, ServerId(12_345)).await.unwrap();
        assert!(none.is_none());

        server.abort();
    }

    #[tokio::test]
    async fn fetch_from_stalled_controller_times_out_not_hangs() {
        // A controller that accepts and then goes silent must burn the
        // caller's deadline, nothing more.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = tokio::spawn(async move {
            let mut held = Vec::new();
            while let Ok((stream, _)) = listener.accept().await {
                held.push(stream); // accept and never answer
            }
        });
        let t0 = std::time::Instant::now();
        let err = fetch_pinglist_with(addr, ServerId(0), std::time::Duration::from_millis(250))
            .await
            .unwrap_err();
        assert!(matches!(err, PingmeshError::Timeout(_)), "{err}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(3),
            "stalled socket must not hang the agent: {:?}",
            t0.elapsed()
        );
        holder.abort();
    }

    #[tokio::test]
    async fn fetch_from_dead_controller_is_an_error() {
        // Bind then drop to get a port with nothing listening.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let err = fetch_pinglist(addr, ServerId(0)).await.unwrap_err();
        assert!(matches!(err, PingmeshError::ControllerUnavailable(_)));
    }
}
