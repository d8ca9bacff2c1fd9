//! Virtual time for the simulation substrate.
//!
//! All simulated components share one clock measured in **microseconds**
//! since the start of the simulation. Using a dedicated newtype (instead of
//! `std::time::Instant`) lets the discrete-event engine, the agents and the
//! DSA job manager agree on time without any wall-clock dependence, which
//! keeps every experiment fully deterministic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The zero point of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw microsecond count.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Truncates this instant down to a multiple of `window`.
    ///
    /// Used to assign probe records to 10-minute / 1-hour / 1-day analysis
    /// windows.
    #[inline]
    pub fn window_start(self, window: SimDuration) -> SimTime {
        if window.0 == 0 {
            return self;
        }
        SimTime(self.0 - self.0 % window.0)
    }

    /// Index of the window of length `window` containing this instant.
    #[inline]
    pub fn window_index(self, window: SimDuration) -> u64 {
        if window.0 == 0 {
            return 0;
        }
        self.0 / window.0
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    /// Builds a duration from hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000)
    }

    /// Builds a duration from days.
    #[inline]
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 24 * 3_600 * 1_000_000)
    }

    /// Raw microsecond count.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration as fractional milliseconds.
    #[inline]
    fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

/// An availability timeline in simulated time: the outage windows of one
/// simulated service (a controller replica, the store's upload front
/// end). Owned by the simulator that owns the clock it is written in.
#[derive(Debug, Clone, Default)]
pub struct DownWindows(Vec<(SimTime, Option<SimTime>)>);

impl DownWindows {
    /// Declares an outage over `[from, until)`; `None` never ends.
    pub fn add(&mut self, from: SimTime, until: Option<SimTime>) {
        self.0.push((from, until));
    }

    /// Whether the service is serving at `t`.
    pub fn is_up(&self, t: SimTime) -> bool {
        !self
            .0
            .iter()
            .any(|&(from, until)| t >= from && until.is_none_or(|u| t < u))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000_000;
        let (d, rem) = (total_secs / 86_400, total_secs % 86_400);
        let (h, rem) = (rem / 3_600, rem % 3_600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(1_000);
        let t2 = t + SimDuration::from_millis(2);
        assert_eq!(t2, SimTime(3_000));
        assert_eq!(t2 - t, SimDuration(2_000));
        assert_eq!(t - t2, SimDuration::ZERO, "sub saturates");
    }

    #[test]
    fn window_assignment() {
        let w = SimDuration::from_mins(10);
        let t = SimTime(w.0 * 3 + 17);
        assert_eq!(t.window_start(w), SimTime(w.0 * 3));
        assert_eq!(t.window_index(w), 3);
        assert_eq!(SimTime(5).window_start(SimDuration::ZERO), SimTime(5));
    }

    #[test]
    fn down_windows_are_half_open_and_may_never_end() {
        let mut d = DownWindows::default();
        assert!(d.is_up(SimTime(150)));
        d.add(SimTime(100), Some(SimTime(200)));
        assert!(d.is_up(SimTime(99)) && !d.is_up(SimTime(100)));
        assert!(!d.is_up(SimTime(199)) && d.is_up(SimTime(200)));
        d.add(SimTime(300), None);
        assert!(!d.is_up(SimTime(u64::MAX)));
    }

    #[test]
    fn display_humanizes() {
        assert_eq!(SimTime(0).to_string(), "00:00:00");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_secs(61)).to_string(),
            "1d00:01:01"
        );
        assert_eq!(SimDuration(12).to_string(), "12us");
        assert_eq!(SimDuration(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }
}
