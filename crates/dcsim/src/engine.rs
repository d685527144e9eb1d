//! Generic discrete-event simulation driver.
//!
//! A [`Model`] reacts to popped events through a [`Ctx`] that lets it read
//! the clock and schedule future events. The [`Engine`] owns the event
//! queue and dispatches one event per [`Engine::step`]; the caller owns the
//! loop, its horizon and its step budget. Keeping dispatch here (rather
//! than in each simulator) centralizes the invariants: time never rewinds
//! and handlers observe a consistent `now`.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Scheduling context handed to a [`Model`] while it handles an event.
pub struct Ctx<'a, E> {
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules an event at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event)
    }
}

/// A simulation model: reacts to events, scheduling follow-ups via [`Ctx`].
pub trait Model<E> {
    /// Handles one event at its firing time.
    fn on_event(&mut self, ctx: &mut Ctx<'_, E>, event: E);
}

/// Owns the event queue and dispatches its events to a [`Model`].
pub struct Engine<E> {
    queue: EventQueue<E>,
    steps: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with an empty queue and the clock at zero.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            steps: 0,
        }
    }

    /// Seeds the queue before the run starts.
    pub fn prime(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops and dispatches exactly one event. Returns false when the queue
    /// is empty (nothing was dispatched). Callers bound the run themselves
    /// by checking [`Engine::peek_time`] and [`Engine::steps`] first.
    pub fn step<M: Model<E>>(&mut self, model: &mut M) -> bool {
        let Some((_, event)) = self.queue.pop() else {
            return false;
        };
        self.steps += 1;
        let mut ctx = Ctx {
            queue: &mut self.queue,
        };
        model.on_event(&mut ctx, event);
        true
    }

    /// Dispatches `event` to the model at time `at` directly, bypassing the
    /// queue. The clock advances to `at` first, so the handler observes the
    /// same `now` as if the event had been popped.
    ///
    /// This is how the driver injects every arrival: an arrival dispatched
    /// here when `at <= peek_time()` fires *before* every queued event at
    /// the same timestamp — exactly the order a pre-primed run gives
    /// arrivals, whose sequence numbers predate all runtime events.
    pub fn dispatch<M: Model<E>>(&mut self, model: &mut M, at: SimTime, event: E) {
        self.queue.advance_to(at);
        self.steps += 1;
        let mut ctx = Ctx {
            queue: &mut self.queue,
        };
        model.on_event(&mut ctx, event);
    }

    /// Advances the clock without processing anything (restore path).
    pub fn advance_to(&mut self, at: SimTime) {
        self.queue.advance_to(at);
    }

    /// Pending events in firing order (see [`EventQueue::pending_events`]).
    pub fn pending_events(&self) -> Vec<(SimTime, E)>
    where
        E: Clone,
    {
        self.queue.pending_events()
    }

    /// Overwrites the processed-event counter (restore path, so step
    /// accounting continues from the captured run).
    pub fn set_steps(&mut self, steps: u64) {
        self.steps = steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    struct PingPong {
        seen: Vec<u32>,
        limit: u32,
    }

    impl Model<Ev> for PingPong {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
            match event {
                Ev::Ping(n) => {
                    self.seen.push(n);
                    if n + 1 < self.limit {
                        ctx.schedule(ctx.now() + SimDuration::from_secs(1), Ev::Ping(n + 1));
                    } else {
                        ctx.schedule(ctx.now(), Ev::Stop);
                    }
                }
                Ev::Stop => {}
            }
        }
    }

    #[test]
    fn runs_to_quiescence() {
        let mut engine = Engine::new();
        engine.prime(SimTime::ZERO, Ev::Ping(0));
        let mut model = PingPong {
            seen: vec![],
            limit: 5,
        };
        while engine.step(&mut model) {}
        assert_eq!(model.seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.now(), SimTime::from_secs(4));
        assert_eq!(engine.steps(), 6); // 5 pings + 1 stop
    }
}
