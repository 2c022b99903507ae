//! The event queue of the reference oracle ([`crate::reference`]); the
//! event loop itself ([`crate::stream`]) merges its three event sources
//! without one.

use resa_core::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A job becomes visible to the scheduler (its release date).
    JobArrival(JobId),
    /// A running job completes.
    JobCompletion(JobId),
    /// The availability profile changes (a reservation starts or ends).
    AvailabilityChange,
}

/// An event stamped with its occurrence time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the event occurs.
    pub at: Time,
    /// What happens.
    pub event: Event,
}

impl Ord for TimedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse on time for earliest-first.
        // Within an instant and kind, lower job ids pop first, so same-time
        // arrivals join the waiting queue in submission order straight off
        // the heap — no per-instant batch-and-sort needed.
        other
            .at
            .cmp(&self.at)
            .then_with(|| event_rank(&other.event).cmp(&event_rank(&self.event)))
            .then_with(|| event_id(&other.event).cmp(&event_id(&self.event)))
    }
}

impl PartialOrd for TimedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic tie-break: completions and availability changes are
/// processed before arrivals at the same instant, so freed resources are
/// visible to the decision taken for the arriving job.
fn event_rank(e: &Event) -> u8 {
    match e {
        Event::JobCompletion(_) => 0,
        Event::AvailabilityChange => 1,
        Event::JobArrival(_) => 2,
    }
}

/// Secondary tie-break within one instant and kind: the job id (0 for
/// availability changes, which carry none).
fn event_id(e: &Event) -> usize {
    match e {
        Event::JobCompletion(id) | Event::JobArrival(id) => id.0,
        Event::AvailabilityChange => 0,
    }
}

/// Time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<TimedEvent>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Schedule an event.
    pub fn push(&mut self, at: Time, event: Event) {
        self.heap.push(TimedEvent { at, event });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<TimedEvent> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(5), Event::JobArrival(JobId(0)));
        q.push(Time(2), Event::JobCompletion(JobId(1)));
        q.push(Time(9), Event::AvailabilityChange);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time(2)));
        assert_eq!(q.pop().unwrap().at, Time(2));
        assert_eq!(q.pop().unwrap().at, Time(5));
        assert_eq!(q.pop().unwrap().at, Time(9));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn completions_before_arrivals_at_same_time() {
        let mut q = EventQueue::new();
        q.push(Time(3), Event::JobArrival(JobId(0)));
        q.push(Time(3), Event::JobCompletion(JobId(1)));
        q.push(Time(3), Event::AvailabilityChange);
        assert_eq!(q.pop().unwrap().event, Event::JobCompletion(JobId(1)));
        assert_eq!(q.pop().unwrap().event, Event::AvailabilityChange);
        assert_eq!(q.pop().unwrap().event, Event::JobArrival(JobId(0)));
    }

    #[test]
    fn default_is_empty() {
        let q = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_instant_arrivals_pop_in_id_order() {
        let mut q = EventQueue::new();
        for id in [4usize, 1, 3, 0, 2] {
            q.push(Time(7), Event::JobArrival(JobId(id)));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|te| match te.event {
                Event::JobArrival(id) => id.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
