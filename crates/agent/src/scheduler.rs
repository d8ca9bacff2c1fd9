//! Probe scheduling: when to ping which peer.
//!
//! Each pinglist entry fires every `interval`. Initial phases are spread
//! deterministically by hashing (server, entry index) so that a freshly
//! deployed fleet does not synchronize its probes ("easily balance the
//! probing activity among all the servers", §6.1), and so that the
//! controller and agents need no coordination.
//!
//! Ephemeral source ports rotate per probe: "Every probing needs to be a
//! new connection and uses a new TCP source port. This is to explore the
//! multi-path nature of the network as much as possible" (§3.4.1).

#[cfg(test)]
use pingmesh_types::{Pinglist, SimTime};
use pingmesh_types::{PinglistEntry, ServerId};
#[cfg(test)]
use std::{cmp::Reverse, collections::BinaryHeap};

/// First ephemeral port used by agents.
pub(crate) const EPHEMERAL_LO: u16 = 32_768;

/// A probe that is due now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueProbe {
    /// Index of the entry in the active pinglist.
    pub entry_index: usize,
    /// The pinglist entry itself.
    pub entry: PinglistEntry,
    /// Fresh ephemeral source port for this probe.
    pub src_port: u16,
}

/// Deterministic initial phase of entry `idx` of `server`'s pinglist,
/// inside `[0, interval_us)`.
pub(crate) fn phase_of(server: ServerId, idx: usize, interval_us: u64) -> u64 {
    if interval_us == 0 {
        return 0;
    }
    let mut z = (server.0 as u64) << 32 | idx as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % interval_us
}

/// Reference scheduler: one binary heap of `(next due, entry index)` per
/// agent. [`crate::AgentFleet`] replaced it in production with one due
/// ring per cadence; it stays, test-only, as the independent algorithm
/// the fleet's differential tests are checked against.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ProbeScheduler {
    server: ServerId,
    entries: Vec<PinglistEntry>,
    /// Min-heap of (next_due, entry_index).
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    next_port: u16,
}

#[cfg(test)]
impl ProbeScheduler {
    /// Creates an idle scheduler (no pinglist installed).
    pub(crate) fn new(server: ServerId) -> Self {
        Self {
            server,
            entries: Vec::new(),
            heap: BinaryHeap::new(),
            next_port: EPHEMERAL_LO,
        }
    }

    /// Installs a pinglist, replacing the previous schedule. Entry phases
    /// are spread deterministically inside each entry's interval.
    pub(crate) fn install(&mut self, pl: &Pinglist, now: SimTime) {
        self.entries = pl.entries.clone();
        self.heap.clear();
        for (i, e) in self.entries.iter().enumerate() {
            let phase = phase_of(self.server, i, e.interval.as_micros());
            self.heap
                .push(Reverse((now + pingmesh_types::SimDuration(phase), i)));
        }
    }

    /// Removes all peers (fail-closed).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.heap.clear();
    }

    /// Number of scheduled peers.
    pub(crate) fn peer_count(&self) -> usize {
        self.entries.len()
    }

    fn fresh_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port == u16::MAX {
            EPHEMERAL_LO
        } else {
            self.next_port + 1
        };
        p
    }

    /// When the next probe is due, if any.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    /// Pops every probe due at or before `now`, rescheduling each entry at
    /// `now + interval`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Vec<DueProbe> {
        let mut due = Vec::new();
        while let Some(&Reverse((t, idx))) = self.heap.peek() {
            if t > now {
                break;
            }
            self.heap.pop();
            let entry = self.entries[idx];
            let src_port = self.fresh_port();
            self.heap.push(Reverse((now + entry.interval, idx)));
            due.push(DueProbe {
                entry_index: idx,
                entry,
                src_port,
            });
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_types::{PingTarget, ProbeKind, QosClass, SimDuration};
    use std::net::Ipv4Addr;

    fn pinglist(n: usize, interval_s: u64) -> Pinglist {
        Pinglist {
            server: ServerId(7),
            generation: 1,
            entries: (0..n)
                .map(|i| PinglistEntry {
                    target: PingTarget::Server {
                        id: ServerId(100 + i as u32),
                        ip: Ipv4Addr::new(10, 0, 0, i as u8),
                    },
                    port: 8100,
                    kind: ProbeKind::TcpSyn,
                    qos: QosClass::High,
                    interval: SimDuration::from_secs(interval_s),
                })
                .collect(),
        }
    }

    #[test]
    fn phases_spread_within_interval() {
        let mut s = ProbeScheduler::new(ServerId(7));
        s.install(&pinglist(100, 30), SimTime::ZERO);
        // All first fires happen within one interval.
        let first = s.next_due().unwrap();
        assert!(first <= SimTime(30_000_000));
        let all = s.pop_due(SimTime(30_000_000));
        assert_eq!(all.len(), 100);
        // Phases are not all identical (spread!).
        let mut ports_and_entries: Vec<usize> = all.iter().map(|d| d.entry_index).collect();
        ports_and_entries.dedup();
        assert!(ports_and_entries.len() > 1);
    }

    #[test]
    fn entries_fire_periodically() {
        let mut s = ProbeScheduler::new(ServerId(1));
        s.install(&pinglist(1, 10), SimTime::ZERO);
        let t1 = s.next_due().unwrap();
        let d1 = s.pop_due(t1);
        assert_eq!(d1.len(), 1);
        let t2 = s.next_due().unwrap();
        assert_eq!(t2, t1 + SimDuration::from_secs(10));
        let d2 = s.pop_due(t2);
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].entry_index, 0);
    }

    #[test]
    fn ports_are_fresh_per_probe() {
        let mut s = ProbeScheduler::new(ServerId(1));
        s.install(&pinglist(5, 10), SimTime::ZERO);
        let mut seen = std::collections::HashSet::new();
        // Entries fire at staggered phases; keep popping until 50 probes
        // have been launched.
        while seen.len() < 50 {
            let t = s.next_due().unwrap();
            for d in s.pop_due(t) {
                assert!(seen.insert(d.src_port), "port {} reused", d.src_port);
            }
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn port_rotation_wraps_without_leaving_ephemeral_range() {
        let mut s = ProbeScheduler::new(ServerId(1));
        s.next_port = u16::MAX;
        assert_eq!(s.fresh_port(), u16::MAX);
        assert_eq!(s.fresh_port(), EPHEMERAL_LO);
    }

    #[test]
    fn clear_stops_everything() {
        let mut s = ProbeScheduler::new(ServerId(1));
        s.install(&pinglist(4, 10), SimTime::ZERO);
        assert_eq!(s.peer_count(), 4);
        s.clear();
        assert_eq!(s.peer_count(), 0);
        assert!(s.next_due().is_none());
        assert!(s.pop_due(SimTime(1_000_000_000)).is_empty());
    }

    #[test]
    fn reinstall_replaces_schedule() {
        let mut s = ProbeScheduler::new(ServerId(1));
        s.install(&pinglist(4, 10), SimTime::ZERO);
        s.install(&pinglist(2, 10), SimTime(5_000_000));
        assert_eq!(s.peer_count(), 2);
        let all = s.pop_due(SimTime(15_000_000 + 10_000_000));
        // Only the 2 new entries fire (old heap cleared), each posssibly
        // twice given the window.
        assert!(all.iter().all(|d| d.entry_index < 2));
    }

    #[test]
    fn phase_is_deterministic() {
        assert_eq!(
            phase_of(ServerId(3), 5, 1_000_000),
            phase_of(ServerId(3), 5, 1_000_000)
        );
        assert_eq!(phase_of(ServerId(3), 5, 0), 0);
    }
}
