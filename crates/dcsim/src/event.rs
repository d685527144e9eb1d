//! Deterministic event queue with stable ordering.
//!
//! Events at equal timestamps pop in insertion order (FIFO), which makes the
//! simulation independent of heap-internal layout and therefore
//! reproducible. Every scheduled event fires: a handler whose event may go
//! stale guards it itself, with a generation or attempt counter in the
//! payload.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Ordering key: (time, seq). `seq` breaks ties FIFO.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A priority queue of future events keyed by simulation time.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling into the past is a logic error; debug builds panic, release
    /// builds fire the event at the current time (never rewinding the clock).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event at {at} before now {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled {
            time: at,
            seq,
            event,
        }));
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Advances the clock to `at` without popping anything.
    ///
    /// Used by checkpoint restore (re-prime pending events, then move the
    /// clock to the captured instant) and by direct event dispatch of
    /// arrivals. Never rewinds: debug builds panic on a past `at`, release
    /// builds clamp to the current time.
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "advance_to {at} before now {}", self.now);
        self.now = self.now.max(at);
    }

    /// Snapshot view of every pending event, sorted by firing order
    /// (`(time, seq)` — the exact order they would pop in).
    ///
    /// Re-scheduling these, in order, into a fresh queue reproduces the
    /// original firing sequence: the old events get the fresh queue's
    /// lowest sequence numbers and anything scheduled later at an equal
    /// timestamp still fires after them, exactly as it would have in the
    /// uninterrupted run.
    pub fn pending_events(&self) -> Vec<(SimTime, E)>
    where
        E: Clone,
    {
        let mut pending: Vec<&Scheduled<E>> = self.heap.iter().map(|Reverse(s)| s).collect();
        pending.sort_unstable();
        pending
            .into_iter()
            .map(|s| (s.time, s.event.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "b");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(9), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "before now")]
    #[cfg(debug_assertions)]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let (t, _) = q.pop().unwrap();
        // Schedule relative to popped time, as handlers do.
        q.schedule(t + SimDuration::from_secs(3), 2);
        q.schedule(t + SimDuration::from_secs(2), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }
}
