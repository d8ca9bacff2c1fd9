//! The peer directory: topology server ids → socket addresses.
//!
//! In production, a pinglist entry's target IP *is* the peer's address.
//! In the localhost deployment every simulated server shares one host, so
//! each gets its own (echo, http) port pair; the directory performs the
//! translation the production network does implicitly.

use parking_lot::RwLock;
use pingmesh_types::ServerId;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// The socket endpoints of one server's responders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerEndpoints {
    /// TCP echo responder (SYN + payload probes).
    pub echo: SocketAddr,
    /// HTTP responder (HTTP probes).
    pub http: SocketAddr,
}

/// Thread-safe server → endpoints map, shared by every local agent.
#[derive(Debug, Clone, Default)]
pub struct PeerDirectory {
    inner: Arc<RwLock<HashMap<ServerId, PeerEndpoints>>>,
}

impl PeerDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a server's endpoints.
    pub fn register(&self, server: ServerId, endpoints: PeerEndpoints) {
        self.inner.write().insert(server, endpoints);
    }

    /// Looks a server up.
    pub fn lookup(&self, server: ServerId) -> Option<PeerEndpoints> {
        self.inner.read().get(&server).copied()
    }

    /// Number of registered servers.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(port: u16) -> PeerEndpoints {
        PeerEndpoints {
            echo: format!("127.0.0.1:{port}").parse().unwrap(),
            http: format!("127.0.0.1:{}", port + 1).parse().unwrap(),
        }
    }

    #[test]
    fn register_and_lookup() {
        let d = PeerDirectory::new();
        assert!(d.is_empty());
        d.register(ServerId(3), ep(9000));
        assert_eq!(d.lookup(ServerId(3)), Some(ep(9000)));
        assert_eq!(d.lookup(ServerId(4)), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let d = PeerDirectory::new();
        let d2 = d.clone();
        d.register(ServerId(1), ep(9100));
        assert_eq!(d2.lookup(ServerId(1)), Some(ep(9100)));
    }

    #[test]
    fn register_replaces() {
        let d = PeerDirectory::new();
        d.register(ServerId(1), ep(9100));
        d.register(ServerId(1), ep(9200));
        assert_eq!(d.lookup(ServerId(1)), Some(ep(9200)));
        assert_eq!(d.len(), 1);
    }
}
