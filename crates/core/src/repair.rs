//! The switch reload budget.
//!
//! Black-holes are "fixed by reloading the switch" (§5.1); the repair
//! service performs the reload, but "we limit the algorithm to reload at
//! most 20 switches per day. This is to limit the maximum number of
//! switch reboots." Requests beyond the daily budget are deferred to the
//! next day's budget. Silent random drops "cannot be fixed by switch
//! reload" (§5.2): taking such a switch out of service is a drain, which
//! the orchestrator's mitigation engine decides and logs.

use pingmesh_netsim::SimNet;
use pingmesh_types::constants::MAX_SWITCH_RELOADS_PER_DAY;
use pingmesh_types::{SimDuration, SimTime, SwitchId};

/// How long a reloading switch stays down.
const RELOAD_OUTAGE: SimDuration = SimDuration::from_secs(120);

/// The repair service.
#[derive(Debug, Default)]
pub struct RepairService {
    reloads_today: u32,
    today: u64,
    /// Log of performed reloads: (time, switch).
    pub reload_log: Vec<(SimTime, SwitchId)>,
    /// Reloads refused because the daily budget was exhausted.
    pub deferred: Vec<SwitchId>,
}

impl RepairService {
    /// Fresh service.
    pub fn new() -> Self {
        Self::default()
    }

    fn roll_day(&mut self, now: SimTime) {
        let day = now.as_micros() / SimDuration::from_days(1).as_micros();
        if day != self.today {
            self.today = day;
            self.reloads_today = 0;
        }
    }

    /// Requests a switch reload. Applies it to the network if the daily
    /// budget allows, otherwise defers. Returns whether the reload
    /// happened.
    pub fn request_reload(&mut self, net: &mut SimNet, sw: SwitchId, now: SimTime) -> bool {
        self.roll_day(now);
        // Deduplicate: a switch already reloaded today needs no repeat.
        if self
            .reload_log
            .iter()
            .any(|&(t, s)| s == sw && now.since(t) < SimDuration::from_days(1))
        {
            return false;
        }
        if self.reloads_today >= MAX_SWITCH_RELOADS_PER_DAY {
            self.deferred.push(sw);
            return false;
        }
        self.reloads_today += 1;
        net.faults_mut().reload_switch(sw, now, RELOAD_OUTAGE);
        self.reload_log.push((now, sw));
        true
    }

    /// Reloads performed on a given (0-based) simulation day.
    pub fn reloads_on_day(&self, day: u64) -> usize {
        let day_us = SimDuration::from_days(1).as_micros();
        self.reload_log
            .iter()
            .filter(|(t, _)| t.as_micros() / day_us == day)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_netsim::DcProfile;
    use pingmesh_topology::{Topology, TopologySpec};
    use std::sync::Arc;

    fn net() -> SimNet {
        let topo = Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap());
        SimNet::new(topo, vec![DcProfile::ideal()], 1)
    }

    #[test]
    fn reload_budget_is_capped_per_day() {
        let mut net = net();
        let mut svc = RepairService::new();
        let mut done = 0;
        for i in 0..30u32 {
            if svc.request_reload(&mut net, SwitchId::tor(i % 8), SimTime(i as u64)) {
                done += 1;
            }
        }
        // tiny topo has only 8 tors, and dedup also kicks in: at most 8.
        assert_eq!(done, 8);
        // With distinct spines we can exhaust the budget of 20.
        let mut svc = RepairService::new();
        let mut done = 0;
        for i in 0..30u32 {
            if svc.request_reload(&mut net, SwitchId::spine(i), SimTime(i as u64)) {
                done += 1;
            }
        }
        assert_eq!(done, 20);
        assert_eq!(svc.deferred.len(), 10);
        assert_eq!(svc.reloads_on_day(0), 20);
    }

    #[test]
    fn budget_resets_next_day() {
        let mut net = net();
        let mut svc = RepairService::new();
        for i in 0..20u32 {
            assert!(svc.request_reload(&mut net, SwitchId::spine(i), SimTime(i as u64)));
        }
        assert!(!svc.request_reload(&mut net, SwitchId::spine(20), SimTime(21)));
        let next_day = SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_secs(1);
        assert!(svc.request_reload(&mut net, SwitchId::spine(21), next_day));
        assert_eq!(svc.reloads_on_day(0), 20);
        assert_eq!(svc.reloads_on_day(1), 1);
    }

    #[test]
    fn same_switch_not_reloaded_twice_a_day() {
        let mut net = net();
        let mut svc = RepairService::new();
        assert!(svc.request_reload(&mut net, SwitchId::tor(0), SimTime(0)));
        assert!(!svc.request_reload(&mut net, SwitchId::tor(0), SimTime(1_000)));
        assert_eq!(svc.reload_log.len(), 1);
    }
}
