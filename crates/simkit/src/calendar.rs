//! A hierarchical calendar/bucket event queue (a ladder queue).
//!
//! The seed simulator keeps its pending events in a `BinaryHeap`, which is
//! fine up to tens of thousands of pending events but pays an
//! O(log n) cache-missy sift on every operation — at a million pending
//! events each pop walks ~20 pointer-chased levels. [`CalendarQueue`]
//! replaces that hot path with the classic discrete-event-simulation
//! alternative: time is carved into buckets, events are thrown into the
//! bucket covering their timestamp in O(1), and only the single bucket
//! currently being drained is ever sorted. Buckets that turn out dense are
//! recursively re-bucketed into a finer *rung*, giving the "ladder":
//!
//! * **top** — an unsorted bag for far-future events (O(1) append);
//! * **rungs** — progressively finer arrays of buckets; an event lands in
//!   the coarsest rung whose un-consumed range covers its timestamp;
//! * **bottom** — the earliest bucket, sorted once by `(time, seq)` and
//!   drained from the front;
//! * **overflow** — a tiny binary heap for events scheduled *inside* the
//!   range bottom is currently draining (zero-delay self-schedules land
//!   here); pops merge bottom and overflow by key.
//!
//! Because every pop ultimately compares full `(time, seq)` keys, the pop
//! order is **exactly** the total order the seed's `BinaryHeap` produces:
//! time-ordered with FIFO tie-breaking on insertion sequence. The
//! differential suite in `tests/calendar_diff.rs` pins that equivalence
//! under adversarial workloads (tie storms, zero-delay self-schedules,
//! far-future outliers), and its `#[ignore]`d, release-only
//! `hold_throughput_heap_vs_calendar` measures the throughput gap that
//! justifies the extra machinery.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One queued event. Ordering ignores the payload: `(time, seq)` is a
/// total order because `seq` is unique.
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A bucket bigger than this is re-bucketed into a finer rung instead of
/// being sorted wholesale (unless its events all share one timestamp —
/// a tie storm — which no amount of re-bucketing can split). Sorting a
/// bucket this size is a cache-resident `sort_unstable`; re-bucketing it
/// would cost a rung's worth of allocations for no locality gain.
const SPAWN_THRESHOLD: usize = 512;

/// Ladder depth bound: a pathological distribution stops subdividing here
/// and falls back to sorting, keeping the worst case O(n log n) overall.
const MAX_RUNGS: usize = 40;

/// One rung: equal-width buckets covering `[start, start + len·2^shift)`.
///
/// Bucket widths are powers of two so the per-insert index is a shift —
/// a 64-bit division here would cost more than the rest of the insert.
///
/// Spawn-time events live in **one contiguous array** (`data`), bucket-major
/// in *reverse* bucket order: bucket N−1 first, bucket 0 last. Draining
/// proceeds bucket 0, 1, 2, … so the next bucket to take is always the
/// suffix of `data` — a truncating drain, never a shift. Compared with a
/// `Vec<Vec<Entry>>`-of-buckets layout this turns a million-event spawn
/// into a counting pass plus a single scatter (no per-bucket allocations,
/// no Vec-header chasing), which is where the ladder spends its time.
/// Events that arrive *after* the spawn go into per-bucket `extras`
/// side-vecs, merged with the `data` slice when their bucket is taken.
struct Rung<T> {
    /// Lower time bound of bucket 0.
    start: u64,
    /// log2 of the bucket width in time units.
    shift: u32,
    /// Next bucket to drain; buckets below this are already consumed and
    /// may no longer accept inserts.
    cur: usize,
    /// Events remaining across `data` + `extras`.
    count: usize,
    /// Spawn-time size of each bucket's slice in `data` (static).
    sizes: Vec<usize>,
    /// Spawn-time events, bucket-major in reverse bucket order; the suffix
    /// of length `sizes[cur]` is the next bucket to drain.
    data: Vec<Entry<T>>,
    /// Post-spawn arrivals, per bucket. Almost always empty.
    extras: Vec<Vec<Entry<T>>>,
}

impl<T> Rung<T> {
    /// Lower time bound of the next un-consumed bucket. Inserts below this
    /// belong to a finer rung (or the overflow heap), never here.
    #[inline]
    fn cur_start(&self) -> u64 {
        self.start.saturating_add((self.cur as u64) << self.shift)
    }

    /// One past the last time this rung covers. Events above this (but below
    /// a coarser rung's consumed range) belong to the overflow heap.
    #[inline]
    fn end(&self) -> u64 {
        self.start
            .saturating_add((self.sizes.len() as u64) << self.shift)
    }

    #[inline]
    fn insert(&mut self, e: Entry<T>) {
        let idx = ((e.time - self.start) >> self.shift) as usize;
        debug_assert!(idx >= self.cur, "insert into a consumed bucket");
        self.extras[idx].push(e);
        self.count += 1;
    }

    /// Move the next non-empty bucket's events into `out` (need not be
    /// sorted; order inside a bucket is irrelevant because the caller sorts
    /// by the total `(time, seq)` key). Caller guarantees `count > 0`.
    fn take_next_bucket(&mut self, out: &mut Vec<Entry<T>>) {
        while self.sizes[self.cur] == 0 && self.extras[self.cur].is_empty() {
            // Skipping empties is amortized against the events that built
            // the rung (bucket_count_for keeps buckets ∝ events).
            self.cur += 1;
        }
        let size = self.sizes[self.cur];
        out.extend(self.data.drain(self.data.len() - size..));
        out.append(&mut self.extras[self.cur]);
        self.count -= out.len();
        self.cur += 1;
    }
}

/// Sizing rule shared by top → rung and bucket → rung transfers: enough
/// buckets that the *expected* bucket stays comfortably under the spawn
/// threshold, but never so many that skipping empties dominates.
fn bucket_count_for(events: usize) -> usize {
    (2 * events / SPAWN_THRESHOLD).clamp(1, 1 << 16)
}

/// The hierarchical calendar queue. See the module docs for the layout.
///
/// `push` panics if `time` is below the highest time already popped — the
/// monotone-clock contract the simulator enforces anyway, and the property
/// that lets consumed buckets be dropped for good.
pub struct CalendarQueue<T> {
    len: usize,
    /// Insertion sequence — the FIFO tie-break.
    seq: u64,
    /// Highest time handed out by `pop` (the monotone floor).
    floor: u64,
    /// The bucket currently being drained, sorted **descending** by
    /// `(time, seq)` so draining is `Vec::pop` from the back.
    bottom: Vec<Entry<T>>,
    /// Late arrivals that fall inside (or before) bottom's range.
    overflow: BinaryHeap<std::cmp::Reverse<Entry<T>>>,
    /// Reused sub-buckets for the distribution sort in
    /// [`Self::sort_bottom`]; capacities warm up once and stick.
    scratch: Vec<Vec<Entry<T>>>,
    /// Coarse → fine. Draining always works on the finest (last) rung.
    rungs: Vec<Rung<T>>,
    /// Unsorted far-future events, `time >= top_start`.
    top: Vec<Entry<T>>,
    top_start: u64,
    top_min: u64,
    top_max: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the floor at zero.
    pub fn new() -> Self {
        CalendarQueue {
            len: 0,
            seq: 0,
            floor: 0,
            bottom: Vec::new(),
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            rungs: Vec::new(),
            top: Vec::new(),
            top_start: 0,
            top_min: u64::MAX,
            top_max: 0,
        }
    }

    /// Pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at `time`. Events pushed at equal times pop in
    /// push order (FIFO). Panics if `time` is below the last popped time.
    pub fn push(&mut self, time: u64, payload: T) {
        assert!(
            time >= self.floor,
            "push({time}) below the queue floor ({})",
            self.floor
        );
        let seq = self.seq;
        self.seq += 1;
        let e = Entry { time, seq, payload };
        self.len += 1;
        if time >= self.top_start {
            self.top_min = self.top_min.min(time);
            self.top_max = self.top_max.max(time);
            self.top.push(e);
            return;
        }
        // Walk coarse → fine. Rung ranges are pairwise disjoint (a finer
        // rung subdivides a bucket its parent already consumed), so at most
        // one rung's un-consumed range `[cur_start, end)` covers `time`.
        for rung in &mut self.rungs {
            if time >= rung.cur_start() && time < rung.end() {
                rung.insert(e);
                return;
            }
        }
        // Inside some consumed range (e.g. a zero-delay self-schedule at the
        // floor, or the gap between a finer rung's tight span and its
        // parent's next bucket): the overflow heap, merged by key on pop.
        self.overflow.push(std::cmp::Reverse(e));
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.ensure_drainable();
        // Fast path: overflow is empty in steady state.
        let e = if self.overflow.is_empty() {
            self.bottom.pop()?
        } else {
            let from_bottom = match (self.bottom.last(), self.overflow.peek()) {
                (None, None) => return None,
                (Some(b), Some(o)) => *b <= o.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if from_bottom {
                self.bottom.pop().expect("checked non-empty")
            } else {
                self.overflow.pop().expect("checked non-empty").0
            }
        };
        self.len -= 1;
        self.floor = e.time;
        Some((e.time, e.payload))
    }

    /// Timestamp of the earliest pending event, without removing it.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.ensure_drainable();
        match (self.bottom.last(), self.overflow.peek()) {
            (None, None) => None,
            (Some(b), Some(o)) => Some(b.time.min(o.0.time)),
            (Some(b), None) => Some(b.time),
            (None, Some(o)) => Some(o.0.time),
        }
    }

    /// Make sure the next event (if any) is reachable through `bottom` or
    /// `overflow`, pulling buckets down the ladder as needed. Bottom must be
    /// refilled even while overflow holds events: overflow may contain gap
    /// events *later* than the rungs' earliest bucket, so only the pop-time
    /// key comparison between the two is authoritative.
    fn ensure_drainable(&mut self) {
        while self.bottom.is_empty() {
            if let Some(rung) = self.rungs.last_mut() {
                if rung.count == 0 {
                    self.rungs.pop();
                    continue;
                }
                rung.take_next_bucket(&mut self.bottom);
                self.load_bottom();
            } else if !self.top.is_empty() {
                let events = std::mem::take(&mut self.top);
                let (min, max) = (self.top_min, self.top_max);
                self.top_min = u64::MAX;
                self.top_max = 0;
                // Reuse the spent allocation as the new top bag: pushes
                // until the next spawn go in without doubling-reallocs.
                self.top = self.spawn_rung(events, min, max);
                self.top_start = self.rungs.last().expect("just spawned").end();
            } else {
                return;
            }
        }
    }

    /// Either sort the freshly taken bucket in `bottom` for draining, or —
    /// if it is dense and splittable — re-bucket it into a finer rung
    /// (clearing `bottom` so the loop takes from the new rung next).
    fn load_bottom(&mut self) {
        if self.bottom.is_empty() {
            return;
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        for e in &self.bottom {
            min = min.min(e.time);
            max = max.max(e.time);
        }
        if self.bottom.len() > SPAWN_THRESHOLD && min != max && self.rungs.len() < MAX_RUNGS {
            let events = std::mem::take(&mut self.bottom);
            // Reuse the drained allocation: the next take extends into it
            // without reallocating.
            self.bottom = self.spawn_rung(events, min, max);
        } else {
            self.sort_bottom(min, max);
        }
    }

    /// Order `bottom` **descending** by `(time, seq)` so draining is
    /// pop-from-the-back. Small or single-timestamp buckets take a plain
    /// `sort_unstable`; larger ones take a one-level distribution sort:
    /// scatter into ~1-event sub-buckets by time, then concatenate high →
    /// low with tiny insertion sorts — linear in practice, and the scratch
    /// sub-buckets keep their capacities across calls so steady state
    /// allocates nothing.
    fn sort_bottom(&mut self, min: u64, max: u64) {
        let span = max - min;
        let len = self.bottom.len();
        if len < 64 || span == 0 {
            self.bottom
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            return;
        }
        let subs = len.next_power_of_two().min(1 << 10);
        if self.scratch.len() < subs {
            self.scratch.resize_with(subs, Vec::new);
        }
        let mut shift = 0u32;
        while shift < 63 && (span >> shift) >= subs as u64 {
            shift += 1;
        }
        let used = (span >> shift) as usize + 1;
        for e in self.bottom.drain(..) {
            self.scratch[((e.time - min) >> shift) as usize].push(e);
        }
        for i in (0..used).rev() {
            let sub = &mut self.scratch[i];
            if sub.len() > 1 {
                sub.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            }
            // `append` drains `sub` but keeps its capacity for next time.
            self.bottom.append(sub);
        }
    }

    /// Distribute `events` (spanning `[min, max]`) into a fresh finest rung:
    /// a counting pass sizes every bucket exactly, then one scatter writes
    /// each event straight to its final slot in the rung's contiguous
    /// reverse-layout array. Two linear passes, one allocation. Returns the
    /// drained (empty, capacity-preserving) input vector for reuse.
    fn spawn_rung(&mut self, mut events: Vec<Entry<T>>, min: u64, max: u64) -> Vec<Entry<T>> {
        let n = bucket_count_for(events.len());
        // Smallest power-of-two width that needs at most `n` buckets. The
        // `< 63` cap keeps the shift legal for full-u64 spans (a 2^63
        // bucket width never needs more than two buckets).
        let span = max - min;
        let mut shift = 0u32;
        while shift < 63 && (span >> shift) >= n as u64 {
            shift += 1;
        }
        let buckets = (span >> shift) as usize + 1;
        let mut sizes = vec![0usize; buckets];
        for e in &events {
            sizes[((e.time - min) >> shift) as usize] += 1;
        }
        // Reverse-layout write cursors: bucket `buckets-1` starts at 0,
        // bucket 0 ends at `total`, so the next bucket to drain is always
        // the suffix of `data`.
        let mut pos = vec![0usize; buckets];
        let mut acc = 0usize;
        for i in (0..buckets).rev() {
            pos[i] = acc;
            acc += sizes[i];
        }
        let total = events.len();
        debug_assert_eq!(acc, total);
        let mut data: Vec<Entry<T>> = Vec::with_capacity(total);
        {
            let spare = data.spare_capacity_mut();
            for e in events.drain(..) {
                let b = ((e.time - min) >> shift) as usize;
                spare[pos[b]].write(e);
                pos[b] += 1;
            }
        }
        // SAFETY: `sizes` counts exactly the events per bucket and the
        // reverse-prefix cursors partition `0..total`, so the loop above
        // wrote every slot in `0..total` exactly once.
        unsafe { data.set_len(total) };
        self.rungs.push(Rung {
            start: min,
            shift,
            cur: 0,
            count: total,
            sizes,
            data,
            extras: (0..buckets).map(|_| Vec::new()).collect(),
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        for &t in &[30u64, 10, 20, 25, 5, 40] {
            q.push(t, t);
        }
        let mut out = Vec::new();
        while let Some((t, p)) = q.pop() {
            assert_eq!(t, p);
            out.push(t);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30, 40]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..100u64 {
            q.push(7, i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_delay_self_schedules_interleave_correctly() {
        // Pop an event at t, push more at t: they must come out before
        // anything later, in FIFO order among themselves.
        let mut q = CalendarQueue::new();
        q.push(10, 0u64);
        q.push(20, 1);
        let (t, p) = q.pop().unwrap();
        assert_eq!((t, p), (10, 0));
        q.push(10, 2);
        q.push(10, 3);
        assert_eq!(q.pop().unwrap(), (10, 2));
        assert_eq!(q.pop().unwrap(), (10, 3));
        assert_eq!(q.pop().unwrap(), (20, 1));
    }

    #[test]
    fn far_future_events_survive() {
        let mut q = CalendarQueue::new();
        q.push(u64::MAX - 1, "end");
        q.push(0, "start");
        q.push(u64::MAX / 2, "middle");
        assert_eq!(q.pop().unwrap().1, "start");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "end");
        assert_eq!(q.pop(), None.map(|x: (u64, &str)| x));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        for &t in &[9u64, 3, 3, 100, 50] {
            q.push(t, ());
        }
        while let Some(t) = q.peek_time() {
            assert_eq!(q.pop().unwrap().0, t);
        }
    }

    #[test]
    #[should_panic(expected = "below the queue floor")]
    fn pushing_below_the_floor_panics() {
        let mut q = CalendarQueue::new();
        q.push(10, ());
        q.pop();
        q.push(9, ());
    }

    #[test]
    fn dense_buckets_subdivide_and_stay_ordered() {
        // Enough events in a tight range to force rung spawning.
        let mut q = CalendarQueue::new();
        let mut state = 0x12345u64;
        let mut times = Vec::new();
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = state % 1000; // very dense
            times.push(t);
            q.push(t, t);
        }
        times.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn steady_state_hold_pattern() {
        // The classic hold model: pop one, push one a random delay later.
        let mut q = CalendarQueue::new();
        let mut state = 99u64;
        for i in 0..1000u64 {
            q.push(i, i);
        }
        let mut last = 0u64;
        for _ in 0..100_000 {
            let (t, _) = q.pop().unwrap();
            assert!(t >= last, "time went backwards");
            last = t;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(t + (state % 5000), 0);
        }
        assert_eq!(q.len(), 1000);
    }
}
