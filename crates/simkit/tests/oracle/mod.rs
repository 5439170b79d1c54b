//! The seed simulator's event store, outside the library: a `BinaryHeap`
//! ordered by `(at, seq)`, where `seq` is the insertion counter — time
//! order with FIFO tie-breaking. `calendar_diff.rs` holds the calendar
//! queue and `Sim` to it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference engine: exactly the seed simulator's data structure.
#[derive(Default)]
pub struct HeapOracle {
    pub heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl HeapOracle {
    pub fn push(&mut self, time: u64) {
        self.heap.push(Reverse((time, self.seq)));
        self.seq += 1;
    }

    pub fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(k)| k)
    }
}

/// Interpret an `(at, children)` script the way the seed `Sim` ran it:
/// event `i` is scheduled at `at` in script order, and when it fires it
/// records `(now, i)` and schedules `children` zero-delay events, each
/// taking its seq as its parent fires and recording
/// `(now, 1_000 + 10·i + c)`. Returns the records in fire order.
pub fn heap_fire_order(events: &[(u64, usize)]) -> Vec<(u64, u64)> {
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    // `None` is a root event, `Some(c)` its `c`-th child.
    let mut push = |heap: &mut BinaryHeap<_>, at: u64, i: usize, child: Option<usize>| {
        heap.push(Reverse((at, seq, i, child)));
        seq += 1;
    };
    for (i, &(at, _)) in events.iter().enumerate() {
        push(&mut heap, at, i, None);
    }
    let mut fired = Vec::new();
    while let Some(Reverse((now, _, i, child))) = heap.pop() {
        match child {
            None => {
                fired.push((now, i as u64));
                for c in 0..events[i].1 {
                    push(&mut heap, now, i, Some(c));
                }
            }
            Some(c) => fired.push((now, 1_000 + 10 * i as u64 + c as u64)),
        }
    }
    fired
}
