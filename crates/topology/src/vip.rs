//! VIP → DIP mapping of the software load balancer (paper §6.2).
//!
//! Our load-balancing system exposes logical virtual IPs (VIPs); a control
//! plane maintains the mapping from each VIP to the physical destination
//! IPs (DIPs) of the servers behind it, and the data plane delivers packets
//! addressed to a VIP to one of the DIPs. Pingmesh's VIP monitoring
//! extension adds VIPs as pinglist targets; the probe is answered by a DIP
//! chosen by five-tuple hash, exactly like the production Ananta-style
//! load balancer the paper references.

use pingmesh_types::{FiveTuple, PingmeshError, ServerId, VipId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Data-plane dispatch failure. `register` rejects empty DIP sets, but a
/// table deserialized from a control-plane document (the index is rebuilt
/// with [`VipTable::reindex`]) can still carry a VIP whose backend set has
/// been drained to nothing; dispatch must surface that instead of dividing
/// by zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VipDispatchError {
    /// The VIP exists but has no healthy DIPs behind it.
    EmptyDipSet(VipId),
}

impl fmt::Display for VipDispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VipDispatchError::EmptyDipSet(id) => {
                write!(f, "VIP {} has an empty DIP set", id.0)
            }
        }
    }
}

impl std::error::Error for VipDispatchError {}

impl From<VipDispatchError> for PingmeshError {
    fn from(e: VipDispatchError) -> Self {
        PingmeshError::InvalidConfig(e.to_string())
    }
}

/// One VIP with its backing DIP set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VipEntry {
    /// VIP identity.
    pub id: VipId,
    /// Virtual address exposed to clients. Lives in 172.16.0.0/16 so it
    /// can never collide with physical server addresses (10.0.0.0/8).
    pub vip: Ipv4Addr,
    /// Servers backing the VIP.
    pub dips: Vec<ServerId>,
}

/// The VIP table maintained by the load-balancer control plane.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VipTable {
    entries: Vec<VipEntry>,
    #[serde(skip)]
    by_ip: HashMap<Ipv4Addr, usize>,
}

impl VipTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Address assigned to the `n`-th VIP.
    fn address_for(n: u32) -> Ipv4Addr {
        let [hi, lo] = (n as u16).to_be_bytes();
        Ipv4Addr::new(172, 16, hi, lo)
    }

    /// Registers a VIP backed by the given servers.
    pub fn register(&mut self, dips: Vec<ServerId>) -> Result<VipId, PingmeshError> {
        if dips.is_empty() {
            return Err(PingmeshError::InvalidConfig(
                "a VIP needs at least one DIP".into(),
            ));
        }
        let id = VipId(self.entries.len() as u32);
        let vip = Self::address_for(id.0);
        self.by_ip.insert(vip, self.entries.len());
        self.entries.push(VipEntry { id, vip, dips });
        Ok(id)
    }

    /// All registered VIPs.
    pub fn entries(&self) -> &[VipEntry] {
        &self.entries
    }

    /// Looks up a VIP entry by id.
    pub fn get(&self, id: VipId) -> Option<&VipEntry> {
        self.entries.get(id.0 as usize)
    }

    /// Looks up a VIP entry by address.
    fn by_address(&self, ip: Ipv4Addr) -> Option<&VipEntry> {
        self.by_ip.get(&ip).map(|&i| &self.entries[i])
    }

    /// Data-plane dispatch: which DIP serves a flow addressed to `vip`?
    /// Deterministic per five-tuple (connection affinity), balanced across
    /// DIPs — the essential behaviour of the paper's SLB. `Ok(None)` means
    /// the address is not a registered VIP at all (the caller falls through
    /// to physical resolution); an empty DIP set is a typed error so the
    /// SLB/controller can degrade gracefully instead of panicking.
    pub fn dispatch(
        &self,
        vip: Ipv4Addr,
        tuple: &FiveTuple,
    ) -> Result<Option<ServerId>, VipDispatchError> {
        let Some(e) = self.by_address(vip) else {
            return Ok(None);
        };
        if e.dips.is_empty() {
            return Err(VipDispatchError::EmptyDipSet(e.id));
        }
        let idx = (tuple.ecmp_hash() % e.dips.len() as u64) as usize;
        Ok(Some(e.dips[idx]))
    }

    /// Rebuilds the by-address index (needed after deserialization, since
    /// the index is not serialized).
    pub fn reindex(&mut self) {
        self.by_ip = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.vip, i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(sp: u16, dst: Ipv4Addr) -> FiveTuple {
        FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), sp, dst, 80)
    }

    #[test]
    fn register_and_lookup() {
        let mut t = VipTable::new();
        let id = t.register(vec![ServerId(1), ServerId(2)]).unwrap();
        let e = t.get(id).unwrap();
        assert_eq!(e.vip, Ipv4Addr::new(172, 16, 0, 0));
        assert_eq!(t.by_address(e.vip).unwrap().id, id);
        assert_eq!(t.by_address(Ipv4Addr::new(172, 16, 0, 99)), None);
    }

    #[test]
    fn empty_dip_set_is_rejected() {
        assert!(VipTable::new().register(vec![]).is_err());
    }

    #[test]
    fn dispatch_is_deterministic_and_balanced() {
        let mut t = VipTable::new();
        let dips: Vec<ServerId> = (0..4).map(ServerId).collect();
        let id = t.register(dips.clone()).unwrap();
        let vip = t.get(id).unwrap().vip;
        let mut counts = vec![0u32; 4];
        for sp in 0..4_000u16 {
            let tu = tuple(sp, vip);
            let d1 = t.dispatch(vip, &tu).unwrap().unwrap();
            let d2 = t.dispatch(vip, &tu).unwrap().unwrap();
            assert_eq!(d1, d2, "connection affinity violated");
            counts[d1.index()] += 1;
        }
        for &c in &counts {
            assert!(
                (700..=1_300).contains(&c),
                "unbalanced dispatch: {counts:?}"
            );
        }
    }

    #[test]
    fn dispatch_to_unknown_vip_is_none() {
        let t = VipTable::new();
        assert_eq!(
            t.dispatch(
                Ipv4Addr::new(172, 16, 0, 0),
                &tuple(1, Ipv4Addr::new(172, 16, 0, 0))
            ),
            Ok(None)
        );
    }

    /// Regression: a VIP entry with zero DIPs — unreachable through
    /// `register`, but constructible from a serialized control-plane
    /// document — used to divide by zero in `dispatch` and panic the data
    /// plane. It must be a typed error instead.
    #[test]
    fn dispatch_with_empty_dip_set_is_typed_error_not_panic() {
        let json = r#"{"entries":[{"id":0,"vip":"172.16.0.0","dips":[]}]}"#;
        let mut t: VipTable = serde_json::from_str(json).expect("table parses");
        t.reindex();
        let vip = Ipv4Addr::new(172, 16, 0, 0);
        assert_eq!(
            t.dispatch(vip, &tuple(7, vip)),
            Err(VipDispatchError::EmptyDipSet(VipId(0)))
        );
        // And the error converts into the crate-wide error type for
        // controller/SLB callers that bubble it up.
        let e: PingmeshError = VipDispatchError::EmptyDipSet(VipId(0)).into();
        assert!(matches!(e, PingmeshError::InvalidConfig(_)));
    }

    #[test]
    fn reindex_restores_lookup_after_serde() {
        let mut t = VipTable::new();
        t.register(vec![ServerId(5)]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let mut back: VipTable = serde_json::from_str(&json).unwrap();
        assert!(back.by_address(VipTable::address_for(0)).is_none());
        back.reindex();
        assert!(back.by_address(VipTable::address_for(0)).is_some());
    }

    #[test]
    fn vip_addresses_do_not_collide_with_server_space() {
        for n in [0u32, 1, 255, 65_535] {
            let ip = VipTable::address_for(n);
            assert_eq!(ip.octets()[0], 172);
        }
    }
}
