//! Differential conformance suite: [`CalendarQueue`] vs the seed's
//! `BinaryHeap` oracle (`oracle/mod.rs`).
//!
//! The calendar queue replaces the simulator's hot path, so its pop order
//! must be **bit-identical** to the heap's `(time, seq)` total order — not
//! merely time-sorted. Every test here drives both engines with the same
//! inputs and compares full output sequences, under the adversarial shapes
//! the ladder's re-bucketing machinery could plausibly get wrong: tie
//! storms (un-splittable buckets), zero-delay self-schedules (inserts at
//! the floor while bottom drains), and far-future outliers (top-bag spans
//! that stress rung width arithmetic).

mod oracle;

use harvest_simkit::{CalendarQueue, Sim, SimRng, SimTime};
use oracle::{heap_fire_order, HeapOracle};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::rc::Rc;
use std::time::Instant;

/// One scripted operation. `Push` carries a *delay above the current
/// floor* so random scripts can never violate the queue's monotone-push
/// contract, whatever interleaving the shrinker finds.
#[derive(Clone, Debug)]
enum Op {
    Push(u64),
    Pop,
}

/// Delay distribution deliberately lumpy: mostly ties and near-ties (the
/// rung splitter cannot separate equal keys), sometimes mid-range, rarely
/// a far-future jump that forces a huge top-bag span. Weighted by
/// repetition — the shim's `prop_oneof!` draws uniformly.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        0u64..4,
        0u64..4,
        0u64..4,
        0u64..10_000,
        0u64..10_000,
        (u64::MAX / 4)..(u64::MAX / 2),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            delay_strategy().prop_map(Op::Push),
            delay_strategy().prop_map(Op::Push),
            delay_strategy().prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of pushes and pops produces the exact `(time, seq)`
    /// sequence the heap produces — including pushes landing at the floor
    /// mid-drain, which exercise the overflow-heap merge path.
    #[test]
    fn interleaved_push_pop_matches_heap_oracle(ops in ops_strategy()) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapOracle::default();
        let mut cal_seq = 0u64;
        let mut floor = 0u64;
        for op in ops {
            match op {
                Op::Push(delay) => {
                    let t = floor.saturating_add(delay);
                    cal.push(t, cal_seq);
                    cal_seq += 1;
                    heap.push(t);
                }
                Op::Pop => {
                    prop_assert_eq!(cal.peek_time(), heap.heap.peek().map(|Reverse(k)| k.0));
                    let got = cal.pop();
                    let want = heap.pop();
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        floor = t;
                    }
                }
            }
            prop_assert_eq!(cal.len(), heap.heap.len());
        }
        // Drain the rest: the tails must agree too.
        loop {
            let got = cal.pop();
            let want = heap.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    /// The classic hold model at a population large enough to spawn rungs:
    /// pop the earliest, reschedule it a random delay ahead. Both engines
    /// consume the identical delay stream.
    #[test]
    fn hold_model_matches_heap_oracle(
        seed in any::<u64>(),
        population in 1usize..600,
        max_delay in 1u64..100_000,
        holds in 200usize..2_000,
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapOracle::default();
        let mut rng = SimRng::new(seed);
        let mut prefill = SimRng::new(seed ^ 0x9e3779b97f4a7c15);
        for i in 0..population {
            let t = prefill.below(max_delay);
            cal.push(t, i as u64);
            heap.push(t);
        }
        // Rescheduled events get fresh ids mirroring the oracle's internal
        // insertion counter, so payloads stay comparable across engines.
        for next_id in (population as u64)..(population + holds) as u64 {
            let (ct, cid) = cal.pop().expect("population stays constant");
            let (ht, hseq) = heap.pop().expect("population stays constant");
            prop_assert_eq!((ct, cid), (ht, hseq));
            let next = ct.saturating_add(rng.below(max_delay) + 1);
            cal.push(next, next_id);
            heap.push(next);
        }
    }

    /// End-to-end through the simulator: `Sim` fires the same actions in
    /// the same order at the same clock readings as the seed heap engine
    /// interpreting the same script — including chains of zero-delay
    /// self-schedules spawned from inside running actions.
    #[test]
    fn sim_and_oracle_fire_identical_sequences(
        events in proptest::collection::vec((delay_strategy(), 0usize..3), 1..60),
    ) {
        let calendar = {
            let mut sim = Sim::new();
            let fired: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            for (i, &(at, children)) in events.iter().enumerate() {
                let fired = fired.clone();
                sim.schedule_at(SimTime::from_nanos(at), move |sim| {
                    fired.borrow_mut().push((sim.now().as_nanos(), i as u64));
                    // Zero-delay self-schedules: children fire at the same
                    // instant, after everything already queued for it.
                    for c in 0..children {
                        let fired = fired.clone();
                        let tag = 1_000 + 10 * i as u64 + c as u64;
                        sim.schedule_in(SimTime::ZERO, move |sim| {
                            fired.borrow_mut().push((sim.now().as_nanos(), tag));
                        });
                    }
                });
            }
            sim.run();
            Rc::try_unwrap(fired).expect("sim dropped all clones").into_inner()
        };
        prop_assert_eq!(calendar, heap_fire_order(&events));
    }
}

/// A directed tie storm far above anything proptest is likely to shrink
/// to: one timestamp shared by thousands of events, which no amount of
/// re-bucketing can split — the ladder must fall back to a sort and still
/// preserve FIFO.
#[test]
fn massive_tie_storm_stays_fifo_like_the_heap() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapOracle::default();
    for i in 0..20_000u64 {
        // Three interleaved tie populations around a hot instant.
        let t = 1_000 + (i % 3);
        cal.push(t, i);
        heap.push(t);
    }
    while let Some(want) = heap.pop() {
        assert_eq!(cal.pop(), Some(want));
    }
    assert!(cal.is_empty());
}

/// Floor-hugging inserts while a dense bottom bucket drains: every pop is
/// chased by two pushes at the just-popped time, forcing sustained
/// bottom/overflow merges.
#[test]
fn zero_delay_chases_merge_identically() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapOracle::default();
    let mut rng = SimRng::new(0xca1e);
    for i in 0..5_000u64 {
        let t = rng.below(500);
        cal.push(t, i);
        heap.push(t);
    }
    let mut seq = 5_000u64;
    let mut budget = 4_000u64;
    while let Some(want) = heap.pop() {
        let got = cal.pop();
        assert_eq!(got, Some(want));
        if budget > 0 {
            budget -= 1;
            for _ in 0..2 {
                cal.push(want.0, seq);
                heap.push(want.0);
                seq += 1;
            }
        }
    }
    assert!(cal.is_empty());
}

/// The throughput gap that pays for the calendar's machinery, measured:
/// the hold model (pop the earliest event, reschedule it a random delay
/// ahead) on the heap oracle and on the calendar queue, each fed the same
/// delay stream, at 10k to 2M pending. Four queue turnovers per population
/// charge rung respawns at their steady-state rate. It prints events/s and
/// the ratio, best of two, and asserts nothing about time: the 2M ratio has
/// read anywhere from 8× to 13× on one 2-vCPU guest. Run it with
/// `cargo test --release -p harvest-simkit --test calendar_diff -- --ignored
/// --nocapture`.
#[test]
#[ignore = "wall clock: run in release with --ignored --nocapture"]
fn hold_throughput_heap_vs_calendar() {
    if cfg!(debug_assertions) {
        eprintln!("hold_throughput_heap_vs_calendar: release builds only");
        return;
    }
    let max_delay = 1_000_000_000;
    for pending in [10_000u64, 100_000, 1_000_000, 2_000_000] {
        let ops = (4 * pending).max(500_000);
        let (mut heap_s, mut cal_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let mut rng = SimRng::new(0xe7e1);
            let mut heap = HeapOracle::default();
            (0..pending).for_each(|_| heap.push(rng.below(max_delay)));
            let start = Instant::now();
            for _ in 0..ops {
                let (t, _) = heap.pop().expect("population never drains");
                heap.push(t + 1 + rng.below(max_delay));
            }
            heap_s = heap_s.min(start.elapsed().as_secs_f64());

            let mut rng = SimRng::new(0xe7e1);
            let mut cal = CalendarQueue::new();
            (0..pending).for_each(|_| cal.push(rng.below(max_delay), ()));
            let start = Instant::now();
            for _ in 0..ops {
                let (t, ()) = cal.pop().expect("population never drains");
                cal.push(t + 1 + rng.below(max_delay), ());
            }
            cal_s = cal_s.min(start.elapsed().as_secs_f64());
        }
        let (heap_eps, cal_eps) = (ops as f64 / heap_s, ops as f64 / cal_s);
        println!(
            "pending {pending:>9}: heap {heap_eps:>12.0} events/s, calendar {cal_eps:>12.0} \
             events/s, calendar over heap {:.2}x",
            cal_eps / heap_eps
        );
    }
}
