//! Property-based tests for the dynamic batcher, the shed policies, and
//! the circuit-breaker state machine.

mod oracle;

use harvest_serving::batcher::QueuedRequest;
use harvest_serving::{
    run_online_protected, AdmissionConfig, BatcherConfig, BreakerConfig, BreakerState,
    CircuitBreaker, DynamicBatcher, FaultInjection, OnlineConfig, PipelineConfig, ShedPolicy,
};
use harvest_simkit::{FaultPlan, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;

/// A queued request as both batchers report it.
type Seen = (u64, SimTime, SimTime, Option<SimTime>);

fn seen(batch: &[QueuedRequest]) -> Vec<Seen> {
    batch
        .iter()
        .map(|r| (r.id, r.enqueued, r.arrival(), r.deadline()))
        .collect()
}

fn seen_oracle(batch: &[oracle::QueuedRequest]) -> Vec<Seen> {
    batch
        .iter()
        .map(|r| (r.id, r.enqueued, r.arrival(), r.deadline()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batcher_conserves_requests_and_respects_caps(
        arrivals in proptest::collection::vec(0u64..10_000, 1..200),
        preferred in 1u32..16,
        delay_us in 1u64..5_000,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut b = DynamicBatcher::new(BatcherConfig::new(
            preferred,
            SimTime::from_micros(delay_us),
        )).expect("valid config");
        let mut dispatched_ids: Vec<u64> = Vec::new();
        for (i, &t) in sorted.iter().enumerate() {
            let now = SimTime::from_micros(t);
            // Fire any due deadline first (the sim driver would).
            if let Some(batch) = b.poll(now).batch {
                prop_assert!(batch.len() <= preferred as usize);
                dispatched_ids.extend(batch.iter().map(|r| r.id));
            }
            if let Some(batch) = b.offer(i as u64, now, now, None).batch {
                prop_assert_eq!(batch.len(), preferred as usize);
                dispatched_ids.extend(batch.iter().map(|r| r.id));
            }
        }
        for batch in b.flush() {
            prop_assert!(batch.len() <= preferred as usize);
            prop_assert!(!batch.is_empty());
            dispatched_ids.extend(batch.iter().map(|r| r.id));
        }
        // Conservation + FIFO.
        prop_assert_eq!(dispatched_ids.len(), sorted.len());
        let expected: Vec<u64> = (0..sorted.len() as u64).collect();
        prop_assert_eq!(dispatched_ids, expected);
        prop_assert_eq!(b.queued(), 0);
        prop_assert_eq!(b.dispatched_requests(), sorted.len() as u64);
    }

    #[test]
    fn deadline_never_dispatches_fresh_requests(
        delay_ms in 1u64..100,
        age_ms in 0u64..200,
    ) {
        let mut b = DynamicBatcher::new(BatcherConfig::new(
            100,
            SimTime::from_millis(delay_ms),
        )).expect("valid config");
        b.offer(0, SimTime::ZERO, SimTime::ZERO, None);
        let result = b.poll(SimTime::from_millis(age_ms)).batch;
        if age_ms >= delay_ms {
            prop_assert!(result.is_some());
        } else {
            prop_assert!(result.is_none());
        }
    }

    #[test]
    fn arbitrary_interleavings_conserve_and_preserve_fifo(
        // (time delta µs, is_push) op stream: pushes and polls interleave in
        // any order the DES driver could produce.
        ops in proptest::collection::vec((0u64..2_000, any::<bool>()), 1..300),
        preferred in 1u32..12,
        delay_us in 10u64..3_000,
    ) {
        let mut b = DynamicBatcher::new(BatcherConfig::new(
            preferred,
            SimTime::from_micros(delay_us),
        )).expect("valid config");
        let mut now_us = 0u64;
        let mut next_id = 0u64;
        let mut dispatched: Vec<u64> = Vec::new();
        for &(dt, is_push) in &ops {
            now_us += dt;
            let now = SimTime::from_micros(now_us);
            if is_push {
                if let Some(batch) = b.offer(next_id, now, now, None).batch {
                    prop_assert_eq!(batch.len(), preferred as usize);
                    dispatched.extend(batch.iter().map(|r| r.id));
                }
                next_id += 1;
            } else {
                while let Some(batch) = b.poll(now).batch {
                    prop_assert!(!batch.is_empty());
                    prop_assert!(batch.len() <= preferred as usize);
                    dispatched.extend(batch.iter().map(|r| r.id));
                }
                // Once polled dry, nothing left in the queue is overdue:
                // the (FIFO-oldest) front's deadline must be in the future.
                if let Some(deadline) = b.next_deadline() {
                    prop_assert!(
                        deadline > now,
                        "overdue request survived a poll: deadline {:?} <= now {:?}",
                        deadline,
                        now
                    );
                }
            }
            // Invariant at every step: what went in is either dispatched or
            // still queued — never lost, never duplicated.
            prop_assert_eq!(
                b.dispatched_requests() + b.queued() as u64,
                next_id,
                "pushes {} != dispatched {} + queued {}",
                next_id,
                b.dispatched_requests(),
                b.queued()
            );
            prop_assert_eq!(b.dispatched_requests(), dispatched.len() as u64);
        }
        for batch in b.flush() {
            dispatched.extend(batch.iter().map(|r| r.id));
        }
        // Global conservation + strict FIFO: ids come out exactly once, in
        // push order, across every size/deadline trigger interleaving.
        let expected: Vec<u64> = (0..next_id).collect();
        prop_assert_eq!(dispatched, expected);
        prop_assert_eq!(b.queued(), 0);
    }

    #[test]
    fn dispatched_requests_tracks_pushes_minus_queued(
        pushes in 0u64..400,
        preferred in 1u32..16,
    ) {
        let mut b = DynamicBatcher::new(BatcherConfig::new(
            preferred,
            SimTime::from_millis(10),
        )).expect("valid config");
        for i in 0..pushes {
            let _ = b.offer(i, SimTime::ZERO, SimTime::ZERO, None);
        }
        prop_assert_eq!(b.dispatched_requests() + b.queued() as u64, pushes);
        // Size-trigger arithmetic: everything beyond the last full batch is
        // still waiting.
        prop_assert_eq!(b.queued() as u64, pushes % u64::from(preferred));
    }

    #[test]
    fn mean_batch_is_within_bounds(
        n in 1u64..500,
        preferred in 1u32..32,
    ) {
        let mut b = DynamicBatcher::new(BatcherConfig::new(
            preferred,
            SimTime::from_millis(1),
        )).expect("valid config");
        for i in 0..n {
            let _ = b.offer(i, SimTime::ZERO, SimTime::ZERO, None);
        }
        let _ = b.flush();
        let mean = b.mean_batch();
        prop_assert!(mean >= 1.0 - 1e-9);
        prop_assert!(mean <= preferred as f64 + 1e-9);
    }

    #[test]
    fn bounded_batcher_conserves_under_every_shed_policy(
        ops in proptest::collection::vec((0u64..2_000, any::<bool>(), 0u64..40_000), 1..300),
        preferred in 1u32..12,
        extra_capacity in 0usize..24,
        policy_pick in 0u8..3,
        service_us in 1u64..10_000,
    ) {
        let shed = match policy_pick {
            0 => ShedPolicy::RejectNew,
            1 => ShedPolicy::DropOldest,
            _ => ShedPolicy::DeadlineAware {
                service_estimate: SimTime::from_micros(service_us),
            },
        };
        let mut config = BatcherConfig::new(preferred, SimTime::from_micros(500));
        config.max_queue = preferred as usize + extra_capacity;
        config.shed = shed;
        let mut b = DynamicBatcher::new(config).expect("valid bounded config");

        let mut now_us = 0u64;
        let mut offered = 0u64;
        let mut rejected = 0u64;
        let mut dispatched: Vec<u64> = Vec::new();
        let mut shed_ids: Vec<u64> = Vec::new();
        for &(dt, is_push, deadline_off_us) in &ops {
            now_us += dt;
            let now = SimTime::from_micros(now_us);
            if is_push {
                let id = offered;
                offered += 1;
                let deadline = Some(SimTime::from_micros(now_us + deadline_off_us));
                let outcome = b.offer(id, now, now, deadline);
                if !outcome.admitted {
                    rejected += 1;
                }
                shed_ids.extend(outcome.shed.iter().map(|r| r.id));
                if let Some(batch) = outcome.batch {
                    prop_assert!(batch.len() <= preferred as usize);
                    dispatched.extend(batch.iter().map(|r| r.id));
                }
            } else {
                let outcome = b.poll(now);
                shed_ids.extend(outcome.shed.iter().map(|r| r.id));
                if let Some(batch) = outcome.batch {
                    prop_assert!(!batch.is_empty());
                    dispatched.extend(batch.iter().map(|r| r.id));
                }
            }
            // Conservation at every step: every offered request is exactly
            // one of dispatched / still queued / shed / rejected.
            prop_assert_eq!(
                dispatched.len() as u64 + b.queued() as u64 + shed_ids.len() as u64 + rejected,
                offered,
                "dispatched {} + queued {} + shed {} + rejected {} != offered {}",
                dispatched.len(),
                b.queued(),
                shed_ids.len(),
                rejected,
                offered
            );
            // The bound actually binds.
            prop_assert!(b.queued() <= preferred as usize + extra_capacity);
        }
        for batch in b.flush() {
            dispatched.extend(batch.iter().map(|r| r.id));
        }
        prop_assert_eq!(
            dispatched.len() as u64 + shed_ids.len() as u64 + rejected,
            offered
        );
        prop_assert_eq!(b.shed_requests(), shed_ids.len() as u64);
        prop_assert_eq!(b.rejected_requests(), rejected);
        // No id is ever both dispatched and shed, and none appears twice.
        let mut seen = HashSet::new();
        for id in dispatched.iter().chain(shed_ids.iter()) {
            prop_assert!(seen.insert(*id), "request {} surfaced twice", id);
        }
    }

    #[test]
    fn offer_poll_flush_equal_the_pre_split_batcher_and_offer_is_admit_plus_size_trigger(
        // (time delta µs, op, deadline offset µs): op 0..=5 offers, 6..=8
        // polls, 9 flushes — every call the DES and `RealBatchServer` make.
        ops in proptest::collection::vec((0u64..2_000, 0u8..10, 0u64..40_000), 1..300),
        preferred in 1u32..12,
        // Bounds below, at and above `preferred`, and 0 = unbounded.
        max_queue in 0usize..30,
        policy_pick in 0u8..3,
        service_us in 1u64..10_000,
        delay_us in 1u64..3_000,
    ) {
        let service_estimate = SimTime::from_micros(service_us);
        let delay = SimTime::from_micros(delay_us);
        let mut config = BatcherConfig::new(preferred, delay);
        config.max_queue = max_queue;
        config.shed = match policy_pick {
            0 => ShedPolicy::RejectNew,
            1 => ShedPolicy::DropOldest,
            _ => ShedPolicy::DeadlineAware { service_estimate },
        };
        let mut old_config = oracle::BatcherConfig::new(preferred, delay);
        old_config.max_queue = max_queue;
        old_config.shed = match policy_pick {
            0 => oracle::ShedPolicy::RejectNew,
            1 => oracle::ShedPolicy::DropOldest,
            _ => oracle::ShedPolicy::DeadlineAware { service_estimate },
        };
        let mut old = oracle::DynamicBatcher::new(old_config).expect("valid config");
        // `offered` goes through the shipped `offer`; `split` through the
        // two calls the wire pool's rule is built from.
        let mut offered = DynamicBatcher::new(config).expect("valid config");
        let mut split = DynamicBatcher::new(config).expect("valid config");

        let mut now_us = 0u64;
        for (id, &(dt, op, deadline_off_us)) in ops.iter().enumerate() {
            let id = id as u64;
            now_us += dt;
            let now = SimTime::from_micros(now_us);
            match op {
                0..=5 => {
                    let arrival = SimTime::from_micros(now_us - dt / 2);
                    let deadline = (op != 0).then(|| SimTime::from_micros(now_us + deadline_off_us));
                    let want = old.offer(id, now, arrival, deadline);
                    let got = offered.offer(id, now, arrival, deadline);
                    let mut two = split.admit(id, now, arrival, deadline);
                    prop_assert!(two.batch.is_none(), "admit never dispatches");
                    if two.admitted && split.queued() >= preferred as usize {
                        two.batch = split.take_oldest();
                    }
                    for out in [&got, &two] {
                        prop_assert_eq!(out.admitted, want.admitted);
                        prop_assert_eq!(seen(&out.shed), seen_oracle(&want.shed));
                        prop_assert_eq!(
                            out.batch.as_deref().map(seen),
                            want.batch.as_deref().map(seen_oracle)
                        );
                    }
                }
                6..=8 => {
                    let want = old.poll(now);
                    for b in [&mut offered, &mut split] {
                        let got = b.poll(now);
                        prop_assert_eq!(seen(&got.shed), seen_oracle(&want.shed));
                        prop_assert_eq!(
                            got.batch.as_deref().map(seen),
                            want.batch.as_deref().map(seen_oracle)
                        );
                    }
                }
                _ => {
                    let want: Vec<Vec<Seen>> = old.flush().iter().map(|b| seen_oracle(b)).collect();
                    for b in [&mut offered, &mut split] {
                        let got: Vec<Vec<Seen>> = b.flush().iter().map(|b| seen(b)).collect();
                        prop_assert_eq!(&got, &want);
                    }
                }
            }
            for b in [&offered, &split] {
                prop_assert_eq!(b.queued(), old.queued());
                prop_assert_eq!(b.next_deadline(), old.next_deadline());
                prop_assert_eq!(b.dispatched_batches(), old.dispatched_batches());
                prop_assert_eq!(b.dispatched_requests(), old.dispatched_requests());
                prop_assert_eq!(b.shed_requests(), old.shed_requests());
                prop_assert_eq!(b.rejected_requests(), old.rejected_requests());
            }
        }
    }

    #[test]
    fn breaker_transitions_are_legal_and_requests_are_conserved(
        ops in proptest::collection::vec((0u64..50, any::<bool>()), 1..400),
        min_samples in 1u64..8,
        cooldown_ms in 10u64..200,
        half_open_probes in 1u64..8,
        close_after in 1u64..4,
    ) {
        let config = BreakerConfig {
            error_threshold: 0.5,
            latency_threshold_s: None,
            ewma_alpha: 0.5,
            min_samples,
            cooldown: SimTime::from_millis(cooldown_ms),
            half_open_probes,
            close_after: close_after.min(half_open_probes),
        };
        let mut b = CircuitBreaker::new(config);
        let mut now_ms = 0u64;
        let mut admitted = 0u64;
        let mut refused = 0u64;
        for &(dt, ok) in &ops {
            now_ms += dt;
            let now = SimTime::from_millis(now_ms);
            let before = b.state(now);
            let was_admitted = b.allow(now);
            if was_admitted {
                admitted += 1;
                if ok {
                    b.record_success(now, SimTime::from_millis(1));
                } else {
                    b.record_failure(now);
                }
            } else {
                refused += 1;
            }
            let after = b.state(now);
            // Closed always admits; open (cooldown not yet elapsed, since
            // `before` is observed post-advance) never does.
            match before {
                BreakerState::Closed => prop_assert!(was_admitted, "closed breaker refused"),
                BreakerState::Open => prop_assert!(!was_admitted, "open breaker admitted"),
                BreakerState::HalfOpen => {}
            }
            // Legal transition graph. `before` is post-advance, so an
            // Open→HalfOpen hop never appears inside a single op; a record
            // at the same instant can only trip or close.
            let legal = before == after
                || (before == BreakerState::Closed && after == BreakerState::Open)
                || (before == BreakerState::HalfOpen && after == BreakerState::Closed)
                || (before == BreakerState::HalfOpen && after == BreakerState::Open);
            prop_assert!(legal, "illegal transition {:?} -> {:?}", before, after);
        }
        // Every request got exactly one verdict — none lost, none counted
        // twice — and recoveries never outnumber trips.
        prop_assert_eq!(admitted + refused, ops.len() as u64);
        prop_assert!(b.closes() <= b.trips());
    }
}

/// End-to-end conservation: the full protected pipeline under arbitrary
/// machine-generated fault plans. Each case runs a complete discrete-event
/// simulation, so the case count is kept deliberately small.
mod faulted_conservation {
    use super::*;
    use harvest_data::DatasetId;
    use harvest_hw::PlatformId;
    use harvest_models::ModelId;
    use harvest_perf::MemoryContext;
    use harvest_preproc::PreprocMethod;

    fn pipeline() -> PipelineConfig {
        PipelineConfig {
            platform: PlatformId::MriA100,
            model: ModelId::VitBase,
            dataset: DatasetId::CornGrowthStage,
            preproc: PreprocMethod::Dali224,
            ctx: MemoryContext::EngineOnly,
            max_batch: 8,
            max_queue_delay: SimTime::from_millis(2),
            preproc_instances: 4,
            engine_instances: 1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn protected_pipeline_conserves_under_arbitrary_fault_plans(
            seed in 0u64..1_000,
            fault_seed in 0u64..1_000,
            crash_start_ms in 0u64..200,
            crash_len_ms in 1u64..200,
            transient_pct in 0u32..25,
            rate in 200.0f64..4_000.0,
            requests in 100u32..300,
            policy_pick in 0u8..3,
            max_in_flight in 8u64..128,
        ) {
            let shed = match policy_pick {
                0 => ShedPolicy::RejectNew,
                1 => ShedPolicy::DropOldest,
                _ => ShedPolicy::DeadlineAware {
                    service_estimate: SimTime::from_millis(5),
                },
            };
            let admission = AdmissionConfig {
                max_in_flight,
                max_queue: 64,
                shed,
                deadline: SimTime::from_micros(16_700),
            };
            let config = OnlineConfig {
                pipeline: pipeline(),
                arrival_rate: rate,
                requests,
                seed,
            };
            let faults = FaultInjection {
                plan: FaultPlan::new(fault_seed)
                    .with_engine_crash(
                        0,
                        SimTime::from_millis(crash_start_ms),
                        SimTime::from_millis(crash_start_ms + crash_len_ms),
                    )
                    .with_transient_errors(f64::from(transient_pct) / 100.0),
                policy: Default::default(),
            };
            let report = run_online_protected(&config, &admission, Some(&faults))
                .expect("protected run");
            prop_assert!(
                report.conserved(),
                "completed {} + shed {} + rejected {} != submitted {} (lost {}, dup {})",
                report.completed,
                report.shed,
                report.rejected,
                report.submitted,
                report.resilience.lost,
                report.resilience.duplicated
            );
        }
    }
}
