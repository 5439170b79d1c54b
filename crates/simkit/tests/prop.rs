//! Property-based tests for the DES core, RNG and statistics.

use harvest_simkit::{Reservoir, Server, Sim, SimRng, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn events_always_fire_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Sim::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        for &t in &times {
            let fired = fired.clone();
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                fired.borrow_mut().push(sim.now());
            });
        }
        sim.run();
        let fired = fired.borrow();
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let got: Vec<u64> = fired.iter().map(|t| t.as_nanos()).collect();
        prop_assert_eq!(got, sorted);
    }

    #[test]
    fn server_conserves_jobs(
        jobs in proptest::collection::vec((0u64..10_000, 0u64..5_000), 1..100),
        capacity in 1u32..8,
    ) {
        let mut sim = Sim::new();
        let server = Server::new("s", capacity);
        let completions = Rc::new(RefCell::new(0u64));
        for &(at, service) in &jobs {
            let server = server.clone();
            let completions = completions.clone();
            sim.schedule_at(SimTime::from_nanos(at), move |sim| {
                let completions = completions.clone();
                server.submit(sim, SimTime::from_nanos(service), move |_s, stats| {
                    assert!(stats.started >= stats.submitted);
                    assert!(stats.finished >= stats.started);
                    *completions.borrow_mut() += 1;
                });
            });
        }
        sim.run();
        prop_assert_eq!(*completions.borrow(), jobs.len() as u64);
    }

    #[test]
    fn reservoir_percentiles_are_monotone_and_bounded(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut r = Reservoir::new();
        for &s in &samples {
            r.push(s);
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = r.percentile(p);
            prop_assert!(v >= prev - 1e-9, "p{p}: {v} < {prev}");
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            prev = v;
        }
        prop_assert_eq!(r.percentile(0.0), min);
        prop_assert_eq!(r.percentile(100.0), max);
    }

    #[test]
    fn rng_below_is_always_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
