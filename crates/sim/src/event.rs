//! The discrete-event core: a priority queue of timestamped events over
//! `u64` nanoseconds of virtual time.
//!
//! Events at equal timestamps are delivered in insertion order (a sequence
//! number breaks ties), which keeps runs bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled in the simulator. Kept deliberately concrete — this is
/// a testbed for one protocol family, not a generic framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The host of `station` wants to enqueue its next test packet.
    AppSend {
        /// Station index.
        station: usize,
    },
    /// The MAC of `station` should (re)attempt transmission.
    MacAttempt {
        /// Station index.
        station: usize,
    },
    /// The transmission with this id ends; receptions are resolved.
    TxEnd {
        /// Transmission id (index into the medium's log).
        tx: usize,
    },
    /// A scripted directive (index into the run's directive table) fires:
    /// move a station, change a knob, enqueue scripted frames, snapshot
    /// counters. Only scheduled by [`crate::runner::Scenario::run_scripted`].
    Directive {
        /// Index into the directive table passed to the scripted run.
        index: usize,
    },
}

/// Time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u64, EventSlot)>>,
    seq: u64,
}

/// Wrapper giving [`Event`] a total order (by discriminant + payload) so it
/// can live inside the heap key; the order among same-time same-seq events is
/// irrelevant because `seq` is unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventSlot(u8, usize);

impl EventSlot {
    fn pack(e: Event) -> (EventSlot, Event) {
        let slot = match e {
            Event::AppSend { station } => EventSlot(0, station),
            Event::MacAttempt { station } => EventSlot(1, station),
            Event::TxEnd { tx } => EventSlot(2, tx),
            Event::Directive { index } => EventSlot(3, index),
        };
        (slot, e)
    }

    fn unpack(self) -> Event {
        match self {
            EventSlot(0, station) => Event::AppSend { station },
            EventSlot(1, station) => Event::MacAttempt { station },
            EventSlot(2, tx) => Event::TxEnd { tx },
            EventSlot(3, index) => Event::Directive { index },
            _ => unreachable!("invalid event slot"),
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `at_ns`.
    pub fn schedule(&mut self, at_ns: u64, event: Event) {
        let (slot, _) = EventSlot::pack(event);
        self.heap.push(Reverse((at_ns, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, slot))| (t, slot.unpack()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, Event::AppSend { station: 0 });
        q.schedule(10, Event::TxEnd { tx: 5 });
        q.schedule(20, Event::MacAttempt { station: 1 });
        assert_eq!(q.pop(), Some((10, Event::TxEnd { tx: 5 })));
        assert_eq!(q.pop(), Some((20, Event::MacAttempt { station: 1 })));
        assert_eq!(q.pop(), Some((30, Event::AppSend { station: 0 })));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(10, Event::AppSend { station: 2 });
        q.schedule(10, Event::AppSend { station: 1 });
        q.schedule(10, Event::AppSend { station: 3 });
        assert_eq!(q.pop(), Some((10, Event::AppSend { station: 2 })));
        assert_eq!(q.pop(), Some((10, Event::AppSend { station: 1 })));
        assert_eq!(q.pop(), Some((10, Event::AppSend { station: 3 })));
    }

    #[test]
    fn event_round_trips_through_slot() {
        for e in [
            Event::AppSend { station: 7 },
            Event::MacAttempt { station: 0 },
            Event::TxEnd { tx: 123 },
            Event::Directive { index: 4 },
        ] {
            let (slot, orig) = EventSlot::pack(e);
            assert_eq!(slot.unpack(), orig);
        }
    }
}
