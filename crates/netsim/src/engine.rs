//! A small, generic discrete-event queue.
//!
//! Events pop in time order; events with equal timestamps pop in
//! insertion order (a strict FIFO tie-break keeps runs deterministic).
//!
//! The orchestrator does not use it: each podset shard runs agent by
//! agent, every agent's pending events in per-agent slots
//! (`pingmesh-core`'s `orchestrator`, DESIGN §11). What remains here is
//! the reference queue the benchmark's `netsim.event_ns` layer times.
//! Metric updates accumulate in plain fields and are published when the
//! queue is dropped, instead of paying an atomic add per event.

use pingmesh_obs::{Counter, Gauge};
use pingmesh_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time pops first,
        // with the lowest sequence number breaking ties.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A scheduled event popped from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

/// The event queue. `E` is the caller's event enum.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    // Metric deltas since the last flush. Plain integers: the hot path
    // (schedule/pop) must not touch an atomic — the deltas are folded
    // into the shared counters on drop.
    pending_scheduled: u64,
    pending_popped: u64,
    // Metric handles are resolved once at construction; a flush is one
    // atomic add per counter regardless of how many events it covers.
    scheduled_ctr: Arc<Counter>,
    popped_ctr: Arc<Counter>,
    depth_gauge: Arc<Gauge>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        let registry = pingmesh_obs::registry();
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            pending_scheduled: 0,
            pending_popped: 0,
            scheduled_ctr: registry.counter("pingmesh_netsim_events_scheduled_total"),
            popped_ctr: registry.counter("pingmesh_netsim_events_popped_total"),
            depth_gauge: registry.gauge("pingmesh_netsim_queue_depth"),
        }
    }

    /// Schedules an event. Scheduling in the past (before `now`) is a
    /// logic error and panics in debug builds; release builds clamp to
    /// `now` so a late event still fires.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {time:?} < {:?}",
            self.now
        );
        let time = time.max(self.now);
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.pending_scheduled += 1;
    }

    /// Pops the next event and advances the clock to it.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            self.pending_popped += 1;
            Scheduled {
                time: e.time,
                event: e.event,
            }
        })
    }

    /// Publishes the schedule/pop deltas accumulated since the last flush
    /// to the shared metric counters and updates the depth gauge: two
    /// atomic adds and a gauge store regardless of how many events were
    /// processed.
    fn flush_metrics(&mut self) {
        if self.pending_scheduled > 0 {
            self.scheduled_ctr.add(self.pending_scheduled);
            self.pending_scheduled = 0;
        }
        if self.pending_popped > 0 {
            self.popped_ctr.add(self.pending_popped);
            self.pending_popped = 0;
        }
        self.depth_gauge.set(self.heap.len() as f64);
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now, SimTime(30));
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(7), ());
        assert_eq!(q.now, SimTime::ZERO);
        assert_eq!(q.heap.peek().map(|e| e.time), Some(SimTime(7)));
        q.pop();
        assert_eq!(q.now, SimTime(7));
        assert!(q.heap.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        let first = q.pop().unwrap();
        assert_eq!(first.event, 1);
        // Schedule relative to the new now.
        q.schedule(SimTime(15), 2);
        q.schedule(SimTime(12), 3);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.heap.len(), 0);
    }

    #[test]
    fn metric_deltas_accumulate_until_flush() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime(i), i);
        }
        q.pop();
        assert_eq!(q.pending_scheduled, 10);
        assert_eq!(q.pending_popped, 1);
        q.flush_metrics();
        assert_eq!(q.pending_scheduled, 0);
        assert_eq!(q.pending_popped, 0);
    }
}
