//! The open-loop schedule: evenly spaced due times, released in ticks,
//! with every request timed from when it was *due* — so a stall shows up
//! as latency on the requests queued behind it, not as a lower offered
//! rate.

/// Evenly spaced arrivals for one connection. All times are nanoseconds
/// from the phase origin; the schedule itself never reads a clock.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    interval_ns: u64,
    offset_ns: u64,
    end_ns: u64,
    next: u64,
}

impl OpenLoop {
    /// `rate_per_s` arrivals per second for `duration_ns`, the first one
    /// at `offset_ns` (stagger connections by a fraction of the interval
    /// so they do not fire in lockstep).
    pub fn new(rate_per_s: f64, duration_ns: u64, offset_ns: u64) -> Self {
        assert!(rate_per_s > 0.0, "open loop needs a positive rate");
        Self {
            interval_ns: (1e9 / rate_per_s).round().max(1.0) as u64,
            offset_ns,
            end_ns: duration_ns,
            next: 0,
        }
    }

    /// Due time of arrival `i`.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.offset_ns + i * self.interval_ns
    }

    /// Arrivals the whole phase holds.
    pub fn total(&self) -> u64 {
        if self.offset_ns >= self.end_ns {
            0
        } else {
            (self.end_ns - self.offset_ns - 1) / self.interval_ns + 1
        }
    }

    /// Releases every arrival due at or before `now_ns` that has not been
    /// released yet, as an index range. A late tick releases the whole
    /// backlog at once: the schedule never skips or re-times an arrival.
    pub fn take_due(&mut self, now_ns: u64) -> std::ops::Range<u64> {
        let from = self.next;
        let total = self.total();
        while self.next < total && self.due_ns(self.next) <= now_ns {
            self.next += 1;
        }
        from..self.next
    }

    /// Due time of the next unreleased arrival, `None` once all are out.
    pub fn next_due_ns(&self) -> Option<u64> {
        (self.next < self.total()).then(|| self.due_ns(self.next))
    }
}

/// Latency of a response from its due time, and how late it was sent.
/// `sent_ns >= due_ns` always (arrivals are released, never anticipated).
pub fn from_due(due_ns: u64, sent_ns: u64, done_ns: u64) -> (u64, u64) {
    (
        done_ns.saturating_sub(due_ns),
        sent_ns.saturating_sub(due_ns),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn arrivals_are_evenly_spaced_and_counted() {
        // 1,000/s for 10 ms: due at 0, 1, .., 9 ms.
        let s = OpenLoop::new(1_000.0, 10 * MS, 0);
        assert_eq!(s.total(), 10);
        assert_eq!(s.due_ns(3), 3 * MS);
        // Offset by half an interval: 0.5, 1.5, .., 9.5 ms.
        let s = OpenLoop::new(1_000.0, 10 * MS, MS / 2);
        assert_eq!(s.total(), 10);
        assert_eq!(s.due_ns(9), 9 * MS + MS / 2);
        assert_eq!(OpenLoop::new(1_000.0, MS, 2 * MS).total(), 0);
    }

    #[test]
    fn ticks_release_exactly_what_is_due() {
        let mut s = OpenLoop::new(2_000.0, 10 * MS, 0); // every 0.5 ms
        assert_eq!(s.take_due(0), 0..1);
        assert_eq!(s.take_due(MS), 1..3);
        assert_eq!(s.take_due(MS), 3..3);
        assert_eq!(s.next_due_ns(), Some(3 * MS / 2));
    }

    #[test]
    fn a_stalled_tick_releases_the_backlog_without_retiming() {
        let mut s = OpenLoop::new(1_000.0, 20 * MS, 0);
        assert_eq!(s.take_due(0), 0..1);
        // The generator stalls for 5 ms: five arrivals come out together,
        // each still carrying its own due time.
        let r = s.take_due(5 * MS);
        assert_eq!(r, 1..6);
        let sent = 5 * MS + 100;
        let (lat, late) = from_due(s.due_ns(1), sent, sent + 300);
        assert_eq!(late, 4 * MS + 100);
        assert_eq!(lat, 4 * MS + 400);
        let (lat, late) = from_due(s.due_ns(5), sent, sent + 300);
        assert_eq!(late, 100);
        assert_eq!(lat, 400);
        // Nothing past the phase end is ever released.
        assert_eq!(s.take_due(1_000 * MS), 6..20);
        assert_eq!(s.next_due_ns(), None);
    }
}
