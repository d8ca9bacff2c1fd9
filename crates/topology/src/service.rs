//! Service → server mapping.
//!
//! "The network SLAs for all the services and applications are calculated
//! by mapping the services and applications to the servers they use"
//! (paper §1). A [`ServiceMap`] records which servers each service runs
//! on; the DSA pipeline later filters probe records through this map to
//! compute per-service latency and drop-rate SLAs.

use pingmesh_types::{PingmeshError, ServerId, ServiceId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Mapping from services to the servers they occupy. A server may host
/// multiple services (services share the fleet).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServiceMap {
    names: Vec<String>,
    servers: Vec<Vec<ServerId>>,
    #[serde(skip)]
    by_server: HashMap<ServerId, Vec<ServiceId>>,
}

impl ServiceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service on a set of servers. Duplicate servers within
    /// one registration are deduplicated; registration order defines ids.
    pub fn register(
        &mut self,
        name: &str,
        servers: impl IntoIterator<Item = ServerId>,
    ) -> Result<ServiceId, PingmeshError> {
        let mut seen = HashSet::new();
        let list: Vec<ServerId> = servers.into_iter().filter(|s| seen.insert(*s)).collect();
        if list.is_empty() {
            return Err(PingmeshError::InvalidConfig(format!(
                "service {name} has no servers"
            )));
        }
        let id = ServiceId(self.names.len() as u32);
        for &s in &list {
            self.by_server.entry(s).or_default().push(id);
        }
        self.names.push(name.to_string());
        self.servers.push(list);
        Ok(id)
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no services are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of a service.
    pub fn name(&self, id: ServiceId) -> Option<&str> {
        self.names.get(id.0 as usize).map(|s| s.as_str())
    }

    /// Services hosted on a server.
    pub fn services_on(&self, server: ServerId) -> &[ServiceId] {
        self.by_server
            .get(&server)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// All service ids.
    pub fn services(&self) -> impl Iterator<Item = ServiceId> + '_ {
        (0..self.names.len() as u32).map(ServiceId)
    }

    /// Rebuilds the reverse index after deserialization.
    pub fn reindex(&mut self) {
        self.by_server.clear();
        for (i, list) in self.servers.iter().enumerate() {
            for &s in list {
                self.by_server
                    .entry(s)
                    .or_default()
                    .push(ServiceId(i as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_query() {
        let mut m = ServiceMap::new();
        let search = m
            .register("search", [ServerId(0), ServerId(1), ServerId(0)])
            .unwrap();
        let store = m.register("storage", [ServerId(1), ServerId(2)]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.name(search), Some("search"));
        // The duplicate ServerId(0) registers once.
        assert_eq!(m.services_on(ServerId(0)), &[search]);
        assert_eq!(m.services_on(ServerId(1)), &[search, store]);
    }

    #[test]
    fn empty_service_is_rejected() {
        assert!(ServiceMap::new().register("void", []).is_err());
    }

    #[test]
    fn unknown_ids_yield_empty_slices() {
        let m = ServiceMap::new();
        assert!(m.services_on(ServerId(9)).is_empty());
        assert_eq!(m.name(ServiceId(9)), None);
    }

    #[test]
    fn reindex_restores_reverse_lookup() {
        let mut m = ServiceMap::new();
        m.register("a", [ServerId(3)]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let mut back: ServiceMap = serde_json::from_str(&json).unwrap();
        assert!(back.services_on(ServerId(3)).is_empty());
        back.reindex();
        assert_eq!(back.services_on(ServerId(3)).len(), 1);
    }
}
