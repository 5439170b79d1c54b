//! # harvest-simkit
//!
//! Deterministic discrete-event simulation (DES) core used by the HARVEST
//! reproduction to model inference serving across the compute continuum.
//!
//! The crate provides:
//!
//! * [`SimTime`] — integer-nanosecond simulated time (total order, no float
//!   drift between runs).
//! * [`Sim`] — the event loop: a priority queue of scheduled closures with a
//!   monotone clock and FIFO tie-breaking, so runs are bit-reproducible.
//! * [`rng`] — a small, dependency-free deterministic RNG (SplitMix64 seeded
//!   xoshiro256**) with the distributions the workload generators need.
//! * [`server`] — capacity-limited FIFO servers (the building block for GPU
//!   compute engines, copy engines and CPU pools).
//! * [`stats`] — streaming moments, percentile reservoirs and fixed-width
//!   histograms for latency/throughput accounting.
//! * [`fault`] — seeded, schedulable fault plans (engine crashes, preproc
//!   stalls, link degradation, transient errors) whose every decision is a
//!   pure function of the plan, keeping chaos runs bit-reproducible.
//! * [`calendar`] — the hierarchical calendar/bucket queue backing the event
//!   loop: O(1) amortized schedule/pop at millions of pending events. The
//!   seed's `BinaryHeap` engine is its conformance oracle and lives outside
//!   the library, in `tests/oracle/` (`tests/calendar_diff.rs` replays
//!   against it).
//! * [`fleet`] — conservative-sync sharded simulation: independent per-shard
//!   event loops advanced in lookahead windows on `harvest-threads` workers,
//!   with a deterministic cross-shard message merge so fleet runs are
//!   bit-identical at every thread count.
//!
//! A single [`Sim`] event loop stays single-threaded by design — determinism
//! matters more than parallel speed, and handler closures are not `Send`.
//! Fleet-scale parallelism lives one level up: [`fleet::FleetSim`] runs many
//! independent shards concurrently and merges their cross-shard traffic
//! deterministically between lookahead windows.

pub mod calendar;
pub mod fault;
pub mod fleet;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;
pub mod trace;

pub use calendar::CalendarQueue;
pub use fault::{
    ArtifactFate, ArtifactFaultPlan, FaultPlan, FaultWindow, SocketFate, SocketFaultPlan,
};
pub use fleet::{FleetSim, Outbox, Shard};
pub use rng::SimRng;
pub use server::{JobStats, Server};
pub use stats::{Histogram, Reservoir, Streaming};
pub use time::SimTime;
pub use trace::{FleetTraceConfig, RegionTrace, RequestKind, Timeline, TraceEvent, TraceRequest};

/// A scheduled event's action.
type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// The discrete-event simulator.
///
/// ```
/// use harvest_simkit::{Sim, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new();
/// let hits = Rc::new(Cell::new(0u32));
/// let h = hits.clone();
/// sim.schedule_in(SimTime::from_millis(5), move |_sim| h.set(h.get() + 1));
/// sim.run();
/// assert_eq!(hits.get(), 1);
/// assert_eq!(sim.now(), SimTime::from_millis(5));
/// ```
pub struct Sim {
    now: SimTime,
    fired: u64,
    /// Pending events in `(at, insertion)` order: time order with FIFO
    /// tie-breaking.
    queue: CalendarQueue<EventFn>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulator with the clock at zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            fired: 0,
            queue: CalendarQueue::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `action` to fire at absolute time `at`.
    ///
    /// Scheduling into the past is a logic error and panics: it would break
    /// the monotone-clock invariant every consumer relies on.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim) + 'static) {
        assert!(
            at >= self.now,
            "schedule_at({at:?}) is before now ({:?})",
            self.now
        );
        self.queue.push(at.as_nanos(), Box::new(action));
    }

    /// Schedule `action` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, action: impl FnOnce(&mut Sim) + 'static) {
        let at = self.now + delay;
        self.schedule_at(at, action);
    }

    /// Fire the single earliest event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at_ns, action)) => {
                let at = SimTime::from_nanos(at_ns);
                debug_assert!(at >= self.now);
                self.now = at;
                self.fired += 1;
                action(self);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue drains. Returns the number of events fired.
    pub fn run(&mut self) -> u64 {
        let start = self.fired;
        while self.step() {}
        self.fired - start
    }

    /// Time of the earliest pending event, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, ms) in [(b'c', 30u64), (b'a', 10), (b'b', 20)] {
            let order = order.clone();
            sim.schedule_at(SimTime::from_millis(ms), move |_| {
                order.borrow_mut().push(label)
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![b'a', b'b', b'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16u32 {
            let order = order.clone();
            sim.schedule_at(SimTime::from_millis(7), move |_| order.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_from_handlers() {
        let mut sim = Sim::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.schedule_in(SimTime::from_millis(1), move |sim| {
            h.borrow_mut().push(sim.now());
            let h2 = h.clone();
            sim.schedule_in(SimTime::from_millis(2), move |sim| {
                h2.borrow_mut().push(sim.now());
            });
        });
        sim.run();
        assert_eq!(
            *hits.borrow(),
            vec![SimTime::from_millis(1), SimTime::from_millis(3)]
        );
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::from_millis(5), |sim| {
            sim.schedule_at(SimTime::from_millis(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn run_returns_fired_count() {
        let mut sim = Sim::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_millis(i), |_| {});
        }
        assert_eq!(sim.run(), 10);
        assert_eq!(sim.events_fired(), 10);
    }
}
