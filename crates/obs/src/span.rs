//! Span-style scoped timers: measure a region, emit one event on exit
//! carrying the wall-clock duration (and virtual-time bounds when the
//! region runs under the simulator).

use crate::event::{Field, Level};
use pingmesh_types::SimTime;
use std::time::Instant;

/// A scoped timer. Create with [`crate::span`]; on drop it emits an
/// `Info` event named after the span with a `duration_us` field.
/// When observability is disabled at creation time the guard is inert
/// (no event, no allocation).
pub struct Span {
    target: &'static str,
    name: &'static str,
    start: Instant,
    sim_start: Option<SimTime>,
    sim_end: Option<SimTime>,
    armed: bool,
}

impl Span {
    pub(crate) fn new(target: &'static str, name: &'static str, armed: bool) -> Span {
        Span {
            target,
            name,
            start: Instant::now(),
            sim_start: None,
            sim_end: None,
            armed,
        }
    }

    /// Attaches the virtual time at which the spanned region started.
    pub fn sim_start(mut self, t: SimTime) -> Span {
        self.sim_start = Some(t);
        self
    }

    /// Records the virtual time at which the spanned region ended.
    pub fn set_sim_end(&mut self, t: SimTime) {
        self.sim_end = Some(t);
    }

    /// Wall-clock time elapsed since the span started.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Ends the span now (otherwise it ends when dropped).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed || !crate::enabled() {
            return;
        }
        let wall_us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut fields = vec![("duration_us", Field::U64(wall_us))];
        if let (Some(s), Some(e)) = (self.sim_start, self.sim_end) {
            fields.push(("sim_duration_us", Field::U64(e.since(s).as_micros())));
        }
        crate::record_event(Level::Info, self.target, self.name, fields, self.sim_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_emits_duration_event() {
        let _on = crate::tests::events_on();
        let before = crate::events().last_seq();
        {
            let _s = crate::span("obs.test", "span_region");
        }
        let evs = crate::events().snapshot_since(before);
        let ev = evs
            .iter()
            .find(|e| e.name == "span_region")
            .expect("span event recorded");
        assert_eq!(ev.target, "obs.test");
        assert!(ev
            .fields
            .iter()
            .any(|(k, v)| *k == "duration_us" && matches!(v, Field::U64(_))));
    }

    #[test]
    fn span_with_sim_bounds_reports_sim_duration() {
        let _on = crate::tests::events_on();
        let before = crate::events().last_seq();
        {
            let mut s = crate::span("obs.test", "sim_span").sim_start(SimTime(1_000));
            s.set_sim_end(SimTime(5_000));
        }
        let evs = crate::events().snapshot_since(before);
        let ev = evs.iter().find(|e| e.name == "sim_span").unwrap();
        assert!(ev
            .fields
            .iter()
            .any(|(k, v)| *k == "sim_duration_us" && *v == Field::U64(4_000)));
        assert_eq!(ev.sim, Some(SimTime(5_000)));
    }
}
