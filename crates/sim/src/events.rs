//! Discrete-event queue driving the overlay simulation.
//!
//! Time is measured in abstract integer ticks. Events scheduled for the same tick are
//! delivered in insertion order, which keeps simulation runs reproducible for a fixed RNG
//! seed.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in abstract ticks.
pub(crate) type Tick = u64;

/// The kinds of events the overlay simulation processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum EventKind {
    /// A new peer joins the overlay.
    PeerJoin,
    /// A randomly chosen peer leaves gracefully (neighbors are notified and may repair).
    PeerLeave,
    /// A randomly chosen peer crashes (no notification, no repair initiated by it).
    PeerCrash,
    /// A randomly chosen peer issues a query for a data item.
    Query,
    /// The simulation records a snapshot of overlay health metrics.
    Snapshot,
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Event {
    /// When the event fires.
    pub time: Tick,
    /// What happens.
    pub kind: EventKind,
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(Tick, u64)>>,
    payloads: Vec<Option<EventKind>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event.
    pub(crate) fn schedule(&mut self, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.payloads.push(Some(event.kind));
        debug_assert_eq!(self.payloads.len() as u64, self.next_seq);
        self.heap.push(Reverse((event.time, seq)));
    }

    /// Removes and returns the earliest event, or `None` when the queue is empty.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let Reverse((time, seq)) = self.heap.pop()?;
        let kind = self.payloads[seq as usize]
            .take()
            .expect("event payload present");
        Some(Event { time, kind })
    }

    /// Returns the time of the earliest pending event without removing it.
    #[cfg(test)]
    pub(crate) fn peek_time(&self) -> Option<Tick> {
        self.heap.peek().map(|Reverse((time, _))| *time)
    }

    /// Returns the number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_out_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Event {
            time: 10,
            kind: EventKind::Query,
        });
        q.schedule(Event {
            time: 2,
            kind: EventKind::PeerJoin,
        });
        q.schedule(Event {
            time: 7,
            kind: EventKind::PeerLeave,
        });
        let order: Vec<Tick> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![2, 7, 10]);
    }

    #[test]
    fn same_tick_events_preserve_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(Event {
            time: 3,
            kind: EventKind::PeerJoin,
        });
        q.schedule(Event {
            time: 3,
            kind: EventKind::PeerCrash,
        });
        q.schedule(Event {
            time: 3,
            kind: EventKind::Snapshot,
        });
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::PeerJoin,
                EventKind::PeerCrash,
                EventKind::Snapshot
            ]
        );
    }

    #[test]
    fn peek_len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Event {
            time: 4,
            kind: EventKind::Query,
        });
        q.schedule(Event {
            time: 9,
            kind: EventKind::Query,
        });
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(4));
        q.pop();
        assert_eq!(q.peek_time(), Some(9));
        q.pop();
        assert!(q.is_empty());
    }
}
