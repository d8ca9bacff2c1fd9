//! The pinglist: the contract between the Pingmesh Controller and Agents.
//!
//! The Controller's Pingmesh Generator computes, per server, the list of
//! peers that server must probe, together with probe parameters. Agents
//! periodically *pull* their pinglist over a RESTful web interface; the
//! Controller never pushes (paper §3.3.2), which keeps it stateless. The
//! wire format is a small XML document (paper §6.2: "standard XML files");
//! serialization lives in `pingmesh-controller::xml`, the schema lives here
//! so the agent does not depend on the controller crate.

use crate::id::ServerId;
use crate::net::{QosClass, VipId};
use crate::probe::ProbeKind;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// What a pinglist entry points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PingTarget {
    /// A physical peer server.
    Server {
        /// Peer server id (for record bookkeeping).
        id: ServerId,
        /// Peer address.
        ip: Ipv4Addr,
    },
    /// A load-balanced VIP (paper §6.2, "VIP monitoring"). The probe
    /// lands on one of the VIP's DIPs chosen by the load balancer.
    Vip {
        /// VIP identity.
        id: VipId,
        /// Virtual address.
        ip: Ipv4Addr,
    },
}

impl PingTarget {
    /// Destination address to probe.
    pub fn ip(&self) -> Ipv4Addr {
        match self {
            PingTarget::Server { ip, .. } | PingTarget::Vip { ip, .. } => *ip,
        }
    }
}

/// One peer entry in a server's pinglist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PinglistEntry {
    /// Whom to probe.
    pub target: PingTarget,
    /// Destination port (the agent listens on one port per QoS class).
    pub port: u16,
    /// Probe kind to launch.
    pub kind: ProbeKind,
    /// QoS class to mark the probe with.
    pub qos: QosClass,
    /// Interval between successive probes of this peer. The agent clamps
    /// this to at least [`crate::constants::MIN_PROBE_INTERVAL`].
    pub interval: SimDuration,
}

/// The complete pinglist generated for one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pinglist {
    /// The server this list was generated for.
    pub server: ServerId,
    /// Monotonically increasing generation number; bumped whenever the
    /// controller regenerates lists from a new topology or configuration.
    pub generation: u64,
    /// Peers to probe.
    pub entries: Vec<PinglistEntry>,
}

impl Pinglist {
    /// Creates an empty pinglist for a server.
    pub fn empty(server: ServerId, generation: u64) -> Self {
        Self {
            server,
            generation,
            entries: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_ip_accessor() {
        let t = PingTarget::Vip {
            id: VipId(3),
            ip: Ipv4Addr::new(172, 16, 0, 3),
        };
        assert_eq!(t.ip(), Ipv4Addr::new(172, 16, 0, 3));
    }
}
