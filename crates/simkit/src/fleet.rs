//! Sharded parallel simulation with conservative synchronization.
//!
//! A single [`crate::Sim`] is single-threaded: its handlers are boxed
//! non-`Send` closures sharing state through `Rc`. Fleet-scale runs need
//! real cores, so this module parallelizes one level up, the classic
//! conservative-DES way:
//!
//! * the world is partitioned into [`Shard`]s (one per region/cluster),
//!   each owning a private event loop (a [`ShardCore`]) — no shared state;
//! * time advances in **lookahead windows**: every shard processes all of
//!   its events in `[window_start, window_end]` independently, in parallel
//!   on `harvest-threads` workers;
//! * cross-shard interaction happens only through messages posted to an
//!   [`Outbox`], and every message must arrive **at or after the window
//!   end** (the lookahead guarantee — enforced by an assert). A shard can
//!   therefore never receive a message for a window it already simulated,
//!   so no rollback is needed;
//! * between windows the fleet merges all outboxes **sequentially in shard
//!   index order** and sorts deliveries by `(destination, time, source,
//!   position)` — a total order that does not depend on which worker ran
//!   which shard, or when.
//!
//! The result is the PR-5/6 determinism discipline applied to simulation:
//! a fleet run is a pure function of its inputs, bit-identical at every
//! thread count (`HARVEST_THREADS=1` produces exactly the bytes
//! `HARVEST_THREADS=64` does). The fleet differential suite pins this by
//! fingerprinting runs at 1/2/4/8 workers.

use crate::calendar::CalendarQueue;
use crate::time::SimTime;

/// A private, `Send` event loop for one shard: the calendar queue plus a
/// monotone clock, without `Sim`'s boxed-closure machinery. Events are
/// plain values (`E` is typically an enum) handled by the shard's own
/// `advance` loop, which keeps the whole shard `Send`-able to the pool.
pub struct ShardCore<E> {
    now: SimTime,
    fired: u64,
    queue: CalendarQueue<E>,
}

impl<E> Default for ShardCore<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardCore<E> {
    /// An empty core with the clock at zero.
    pub fn new() -> Self {
        ShardCore {
            now: SimTime::ZERO,
            fired: 0,
            queue: CalendarQueue::new(),
        }
    }

    /// Current shard-local time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events popped so far.
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute time `at` (panics if `at` is in the
    /// shard's past — same monotone-clock contract as [`crate::Sim`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "schedule_at({at:?}) is before now ({:?})",
            self.now
        );
        self.queue.push(at.as_nanos(), event);
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Time of the earliest pending event.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime::from_nanos)
    }

    /// Pop the earliest event if it fires at or before `end`, advancing the
    /// clock to it. The usual shard `advance` loop is
    /// `while let Some((at, ev)) = core.pop_due(end) { … }`.
    pub fn pop_due(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= end.as_nanos() => {
                let (t, ev) = self.queue.pop().expect("peeked non-empty");
                self.now = SimTime::from_nanos(t);
                self.fired += 1;
                Some((self.now, ev))
            }
            _ => None,
        }
    }

    /// Advance the clock to the end of a window whose events are drained.
    pub fn finish_window(&mut self, end: SimTime) {
        if self.now < end {
            self.now = end;
        }
    }
}

/// Cross-shard messages posted by a shard during one window.
///
/// The lookahead guarantee lives here: [`Outbox::send`] panics if a message
/// would arrive before the current window's end, because such a message
/// could rewrite simulated history another worker already executed.
pub struct Outbox<M> {
    horizon: SimTime,
    msgs: Vec<(usize, SimTime, M)>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Outbox {
            horizon: SimTime::ZERO,
            msgs: Vec::new(),
        }
    }

    /// Earliest admissible arrival time for a message sent now (the end of
    /// the window being simulated).
    #[inline]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Post a message to shard `dest`, arriving at absolute time `at`.
    ///
    /// Panics if `at` is before the lookahead horizon: cross-shard links
    /// must model at least the fleet's lookahead worth of latency.
    pub fn send(&mut self, dest: usize, at: SimTime, msg: M) {
        assert!(
            at >= self.horizon,
            "cross-shard message at {at:?} violates the lookahead horizon ({:?})",
            self.horizon
        );
        self.msgs.push((dest, at, msg));
    }
}

/// One partition of the fleet: a private event loop plus message handlers.
///
/// `Send` is required so shards can be advanced on pool workers; all
/// cross-shard communication goes through the [`Outbox`].
pub trait Shard: Send {
    /// The cross-shard message type.
    type Msg: Send;

    /// Process every local event in `(previous end, window_end]`, posting
    /// any cross-shard traffic to `outbox`, and leave the local clock at
    /// `window_end`.
    fn advance(&mut self, window_end: SimTime, outbox: &mut Outbox<Self::Msg>);

    /// Accept a message routed from another shard. `at` is the arrival
    /// time, never earlier than the shard's clock; the usual implementation
    /// schedules a local event at `at`.
    fn deliver(&mut self, at: SimTime, msg: Self::Msg);

    /// Time of the shard's earliest pending event, used for idle skip-ahead
    /// and termination.
    fn next_event_time(&mut self) -> Option<SimTime>;
}

struct Slot<S: Shard> {
    shard: S,
    outbox: Outbox<S::Msg>,
}

/// The fleet coordinator: advances every shard window-by-window in
/// parallel and routes cross-shard messages deterministically in between.
pub struct FleetSim<S: Shard> {
    slots: Vec<Slot<S>>,
    now: SimTime,
    lookahead: SimTime,
    windows: u64,
    messages: u64,
}

impl<S: Shard> FleetSim<S> {
    /// Build a fleet over `shards`, with windows `lookahead` wide. Every
    /// cross-shard link must model at least `lookahead` of latency (the
    /// [`Outbox`] enforces it per message).
    pub fn new(shards: Vec<S>, lookahead: SimTime) -> Self {
        assert!(lookahead > SimTime::ZERO, "lookahead must be positive");
        FleetSim {
            slots: shards
                .into_iter()
                .map(|shard| Slot {
                    shard,
                    outbox: Outbox::new(),
                })
                .collect(),
            now: SimTime::ZERO,
            lookahead,
            windows: 0,
            messages: 0,
        }
    }

    /// Current fleet time (the end of the last completed window).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the fleet has no shards.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lookahead windows executed so far.
    #[inline]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-shard messages routed so far.
    #[inline]
    pub fn messages_routed(&self) -> u64 {
        self.messages
    }

    /// Borrow shard `i`.
    pub fn shard(&self, i: usize) -> &S {
        &self.slots[i].shard
    }

    /// Iterate over the shards in index order.
    pub fn shards(&self) -> impl Iterator<Item = &S> {
        self.slots.iter().map(|s| &s.shard)
    }

    /// Tear down the fleet, returning the shards in index order.
    pub fn into_shards(self) -> Vec<S> {
        self.slots.into_iter().map(|s| s.shard).collect()
    }

    fn earliest_event(&mut self) -> Option<SimTime> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.shard.next_event_time())
            .min()
    }

    /// Execute one lookahead window if any event fires at or before
    /// `deadline`. Returns `false` when the fleet is quiescent up to the
    /// deadline.
    fn step_window(&mut self, deadline: SimTime) -> bool {
        let Some(earliest) = self.earliest_event() else {
            return false;
        };
        if earliest > deadline {
            return false;
        }
        // Idle skip-ahead: jump straight to the next event anywhere in the
        // fleet (deterministic — depends only on queue contents).
        if earliest > self.now {
            self.now = earliest;
        }
        let window_end = SimTime::from_nanos(
            self.now
                .as_nanos()
                .saturating_add(self.lookahead.as_nanos())
                .min(deadline.as_nanos()),
        );

        for slot in &mut self.slots {
            slot.outbox.horizon = window_end;
            debug_assert!(slot.outbox.msgs.is_empty());
        }
        // Parallel phase: each worker advances whole shards; shard state is
        // private, so the only cross-thread effect is which core ran which
        // shard — invisible to the simulation.
        harvest_threads::for_each_chunk_mut(&mut self.slots, 1, |_, block| {
            let slot = &mut block[0];
            slot.shard.advance(slot.outbox.horizon, &mut slot.outbox);
        });
        self.now = window_end;
        self.windows += 1;

        // Sequential merge in shard index order, then a total sort: the
        // delivery order is a pure function of the messages themselves.
        let n = self.slots.len();
        let mut routed: Vec<(usize, u64, usize, usize, S::Msg)> = Vec::new();
        for (src, slot) in self.slots.iter_mut().enumerate() {
            for (pos, (dest, at, msg)) in slot.outbox.msgs.drain(..).enumerate() {
                assert!(dest < n, "message addressed to unknown shard {dest}");
                routed.push((dest, at.as_nanos(), src, pos, msg));
            }
        }
        routed.sort_by_key(|r| (r.0, r.1, r.2, r.3));
        self.messages += routed.len() as u64;
        for (dest, at, _, _, msg) in routed {
            self.slots[dest].shard.deliver(SimTime::from_nanos(at), msg);
        }
        true
    }

    /// Run until every shard is quiescent (no pending events anywhere).
    pub fn run(&mut self) {
        while self.step_window(SimTime::MAX) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard that passes a token around the ring: on receiving `hop`, it
    /// forwards `hop + 1` to the next shard after `link` latency, recording
    /// every hop it sees.
    struct RingShard {
        id: usize,
        n: usize,
        link: SimTime,
        core: ShardCore<u64>,
        seen: Vec<(u64, u64)>, // (hop, at_nanos)
    }

    impl RingShard {
        fn new(id: usize, n: usize, link: SimTime) -> Self {
            RingShard {
                id,
                n,
                link,
                core: ShardCore::new(),
                seen: Vec::new(),
            }
        }
    }

    impl Shard for RingShard {
        type Msg = u64;

        fn advance(&mut self, window_end: SimTime, outbox: &mut Outbox<u64>) {
            while let Some((at, hop)) = self.core.pop_due(window_end) {
                self.seen.push((hop, at.as_nanos()));
                if hop < 40 {
                    outbox.send((self.id + 1) % self.n, at + self.link, hop + 1);
                }
            }
            self.core.finish_window(window_end);
        }

        fn deliver(&mut self, at: SimTime, msg: u64) {
            self.core.schedule_at(at, msg);
        }

        fn next_event_time(&mut self) -> Option<SimTime> {
            self.core.next_time()
        }
    }

    fn run_ring(threads: usize) -> Vec<Vec<(u64, u64)>> {
        harvest_threads::with_threads(threads, || {
            let n = 5;
            let link = SimTime::from_millis(3);
            let mut shards: Vec<RingShard> = (0..n).map(|i| RingShard::new(i, n, link)).collect();
            shards[0].core.schedule_at(SimTime::from_millis(1), 0);
            let mut fleet = FleetSim::new(shards, SimTime::from_millis(2));
            fleet.run();
            assert!(fleet.windows() > 0);
            assert_eq!(fleet.messages_routed(), 40);
            fleet.into_shards().into_iter().map(|s| s.seen).collect()
        })
    }

    #[test]
    fn ring_token_visits_every_shard_in_order() {
        let seen = run_ring(1);
        // Hop h lands on shard h mod 5 at 1ms + 3ms·h.
        for (i, shard_seen) in seen.iter().enumerate() {
            for &(hop, at) in shard_seen {
                assert_eq!(hop as usize % 5, i);
                assert_eq!(at, 1_000_000 + 3_000_000 * hop);
            }
        }
        let total: usize = seen.iter().map(Vec::len).sum();
        assert_eq!(total, 41);
    }

    #[test]
    fn ring_is_bit_identical_at_every_thread_count() {
        let base = run_ring(1);
        for threads in [2, 4, 8] {
            assert_eq!(run_ring(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn idle_skip_ahead_jumps_gaps() {
        let mut shard = RingShard::new(0, 1, SimTime::from_secs(5));
        shard.core.schedule_at(SimTime::from_secs(100), 100); // beyond the chain
        let mut fleet = FleetSim::new(vec![shard], SimTime::from_millis(1));
        fleet.run();
        // Without skip-ahead this would need ~100_000 windows.
        assert!(fleet.windows() < 10, "windows={}", fleet.windows());
    }

    #[test]
    #[should_panic(expected = "lookahead horizon")]
    fn sending_inside_the_window_panics() {
        struct Rogue {
            core: ShardCore<()>,
        }
        impl Shard for Rogue {
            type Msg = ();
            fn advance(&mut self, end: SimTime, outbox: &mut Outbox<()>) {
                while let Some((at, ())) = self.core.pop_due(end) {
                    outbox.send(0, at, ()); // zero-latency cross-shard: illegal
                }
                self.core.finish_window(end);
            }
            fn deliver(&mut self, at: SimTime, msg: ()) {
                self.core.schedule_at(at, msg);
            }
            fn next_event_time(&mut self) -> Option<SimTime> {
                self.core.next_time()
            }
        }
        let mut core = ShardCore::new();
        core.schedule_at(SimTime::from_millis(1), ());
        let mut fleet = FleetSim::new(vec![Rogue { core }], SimTime::from_millis(10));
        fleet.run();
    }
}
