//! The engine pool's dispatch rule, as a socket- and thread-free state
//! machine.
//!
//! One rule, evaluated on exactly two events — a submission and a
//! completion: **if a worker is idle, no barrier is up and the queue is
//! non-empty, the oldest `min(queued, preferred_batch)` requests leave as one
//! batch to the lowest-numbered idle worker; otherwise they stay in the
//! batcher queue.** A request waits for batch partners only while every
//! worker is busy, where the wait costs nothing, and the queue bound governs
//! everything not yet running. A barrier is a staged swap waiting for the
//! pool-wide batch boundary, or a freshly swapped generation's guarded first
//! batch, pending or in flight.
//!
//! [`Pool`] owns the batcher, the payloads, the busy set, the barrier flags,
//! the weight-generation cell and the submission-order merge. Every `on_*`
//! call returns the [`Effect`]s its caller must perform, in order; the
//! channel shell around it (`server::engine_loop`) owns the threads, the
//! reply senders, the breaker and the clock.

use harvest_engine::{
    ActivationGuard, MaterializedWeights, ScratchStats, WeightStore, WeightsCell,
};
use harvest_models::Graph;
use harvest_serving::{BatcherConfig, DynamicBatcher};
use harvest_simkit::SimTime;
use harvest_tensor::Tensor;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::vec::Drain;

/// One request's resolution, sent back from the engine thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WireOutcome {
    /// Inference ran; argmax class, the batch the request rode in, whether
    /// the degraded ladder rung served it, and the weight generation that
    /// produced the logits.
    Done {
        class: usize,
        batch: usize,
        degraded: bool,
        generation: u64,
    },
    /// Bounded queue (or drain) turned the request away.
    Rejected,
    /// The admission breaker is open; answered 503 with Retry-After.
    BreakerOpen,
    /// DropOldest evicted the request to admit newer work.
    Shed,
    /// Internal fault (a queued id without its payload, or an engine that
    /// never answered); answered 500.
    Failed,
}

/// Resolution of one `POST /admin/swap`, sent back from the engine thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SwapOutcome {
    /// The artifact passed every check and now serves.
    Swapped { generation: u64, fingerprint: u64 },
    /// The integrity gate refused the artifact; the serving generation is
    /// untouched.
    Rejected { error: String },
    /// The admission breaker is open: the engine is not healthy enough to
    /// take a new generation.
    BreakerOpen,
    /// The engine has drained; no further swaps.
    Draining,
}

/// A batch on its way to one pool worker.
pub(crate) struct Batch {
    /// Dispatch sequence number: the batch's position in the
    /// submission-order merge (it says nothing about which worker runs it).
    pub(crate) seq: u64,
    pub(crate) ids: Vec<u64>,
    pub(crate) inputs: Vec<Tensor>,
    /// Armed for a freshly swapped generation's first batch: run the
    /// checked forward and report a sentinel violation instead of
    /// emitting classes.
    pub(crate) guard: Option<ActivationGuard>,
}

/// One worker's verdict on one batch, merged by the pool in submission
/// order.
pub(crate) struct WorkerDone {
    pub(crate) seq: u64,
    pub(crate) worker: usize,
    pub(crate) ids: Vec<u64>,
    /// Argmax class per request, in the batch's submission order (empty on
    /// a violation).
    pub(crate) classes: Vec<usize>,
    /// The guarded run tripped the activation sentinel; `inputs` carries
    /// the payloads back so the pool can roll back and re-serve them.
    pub(crate) violation: bool,
    pub(crate) inputs: Vec<Tensor>,
    /// The worker executor's scratch counters, piggybacked so `/metrics`
    /// never has to stop the pool.
    pub(crate) scratch: ScratchStats,
    /// How long the worker held the batch, nanoseconds.
    pub(crate) busy_ns: u64,
}

/// What the shell must do for the pool, in the order given.
pub(crate) enum Effect {
    /// Send the batch to this worker.
    Run { worker: usize, batch: Batch },
    /// Install this generation on every worker (a publish or a rollback).
    Install(Arc<MaterializedWeights>),
    /// Resolve one request.
    Answer { id: u64, outcome: WireOutcome },
    /// Resolve the staged `/admin/swap`.
    Swap(SwapOutcome),
}

/// A fixed-bucket cumulative histogram: `counts[i]` observations were at
/// most `bounds[i]` (`u64::MAX` prints as `inf`). Plain integers, so
/// observing on the request path allocates nothing.
struct Buckets<const N: usize> {
    bounds: [u64; N],
    counts: [u64; N],
}

impl<const N: usize> Buckets<N> {
    fn new(bounds: [u64; N]) -> Self {
        Buckets {
            bounds,
            counts: [0; N],
        }
    }

    fn observe(&mut self, value: u64) {
        for (count, &bound) in self.counts.iter_mut().zip(&self.bounds) {
            *count += u64::from(value <= bound);
        }
    }
}

/// A `/metrics` section under construction, one `name value` line at a
/// time.
struct Lines(String);

impl Lines {
    fn put(&mut self, name: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.0, "{name} {value}");
    }

    /// One histogram, as `<name>_le_<bound> <count>` lines.
    fn put_buckets<const N: usize>(&mut self, name: &str, buckets: &Buckets<N>) {
        for (count, &bound) in buckets.counts.iter().zip(&buckets.bounds) {
            match bound {
                u64::MAX => self.put(&format!("{name}_le_inf"), count),
                _ => self.put(&format!("{name}_le_{bound}"), count),
            }
        }
    }
}

/// Per-worker accounting for `/metrics`.
#[derive(Clone, Default)]
struct WorkerCounters {
    batches: u64,
    requests: u64,
    scratch: ScratchStats,
}

/// The pool coordinator's state (see the module doc for the rule).
pub(crate) struct Pool<'g> {
    graph: &'g Graph,
    cell: WeightsCell,
    batcher: DynamicBatcher,
    payloads: HashMap<u64, Tensor>,
    /// `busy[w]`: worker `w` holds a dispatched batch.
    busy: Vec<bool>,
    done_buf: BTreeMap<u64, WorkerDone>,
    next_seq: u64,
    next_done: u64,
    /// A staged `/admin/swap`, held until the pool-wide batch boundary.
    staged_swap: Option<Vec<u8>>,
    /// The seq of the fresh generation's guarded first batch while it runs.
    /// While the cell hands out a guard, that batch runs solo: it waits for
    /// the pool to empty, and nothing else leaves until its verdict.
    guard_inflight: Option<u64>,
    draining: bool,
    workers: Vec<WorkerCounters>,
    dispatch_on_submit: u64,
    dispatch_on_completion: u64,
    batch_size: Buckets<5>,
    queue_wait_us: Buckets<6>,
    worker_busy_ns: u64,
    worker_busy_requests: u64,
    effects: Vec<Effect>,
}

impl<'g> Pool<'g> {
    /// A pool of `width` idle workers serving `graph` at the weights
    /// `seed` materializes — bit-identical to every worker's boot weights,
    /// so generation 0's fingerprint matches what the workers serve.
    pub(crate) fn new(graph: &'g Graph, seed: u64, batcher: BatcherConfig, width: usize) -> Self {
        Pool {
            graph,
            cell: WeightsCell::new(Arc::new(MaterializedWeights::new(
                graph,
                &WeightStore::new(seed),
                false,
            ))),
            batcher: DynamicBatcher::new(batcher).expect("batcher config validated at start()"),
            payloads: HashMap::new(),
            busy: vec![false; width],
            done_buf: BTreeMap::new(),
            next_seq: 0,
            next_done: 0,
            staged_swap: None,
            guard_inflight: None,
            draining: false,
            workers: vec![WorkerCounters::default(); width],
            dispatch_on_submit: 0,
            dispatch_on_completion: 0,
            batch_size: Buckets::new([1, 2, 4, 8, u64::MAX]),
            queue_wait_us: Buckets::new([10, 100, 1_000, 10_000, 100_000, u64::MAX]),
            worker_busy_ns: 0,
            worker_busy_requests: 0,
            effects: Vec::new(),
        }
    }

    /// A request arrived: admit it under the queue bound and the shed
    /// policy (a draining pool refuses), then let the rule run.
    pub(crate) fn on_submit(&mut self, id: u64, input: Tensor, t: SimTime) -> Drain<'_, Effect> {
        if self.draining {
            self.answer(id, WireOutcome::Rejected);
            return self.effects.drain(..);
        }
        let admission = self.batcher.admit(id, t, t, None);
        if admission.admitted {
            self.payloads.insert(id, input);
        } else {
            self.answer(id, WireOutcome::Rejected);
        }
        for victim in admission.shed {
            // Shed requests never execute: drop the payload.
            self.payloads.remove(&victim.id);
            self.answer(victim.id, WireOutcome::Shed);
        }
        self.dispatch_on_submit += self.dispatch(t);
        self.effects.drain(..)
    }

    /// A worker reported: a violation rolls the swap back and re-serves the
    /// batch on the worker that reported it; a completion frees the worker,
    /// enters the reorder buffer, and the contiguous prefix is answered in
    /// submission order. Either way the rule then runs.
    pub(crate) fn on_done(&mut self, d: WorkerDone, t: SimTime) -> Drain<'_, Effect> {
        self.workers[d.worker].scratch = d.scratch;
        if self.guard_inflight == Some(d.seq) {
            // The guarded first batch's verdict settles the generation: a
            // clean one proves it, a violation rolls it back everywhere.
            self.guard_inflight = None;
            if let Some(weights) = self.cell.settle(d.violation) {
                self.effects.push(Effect::Install(weights));
            }
        }
        if d.violation {
            // Re-serve the same batch on the same worker, on the
            // rolled-back-to generation: no request is ever answered from
            // the quarantined one.
            self.effects.push(Effect::Run {
                worker: d.worker,
                batch: Batch {
                    seq: d.seq,
                    ids: d.ids,
                    inputs: d.inputs,
                    guard: None,
                },
            });
        } else {
            self.busy[d.worker] = false;
            self.worker_busy_ns += d.busy_ns * d.ids.len() as u64;
            self.worker_busy_requests += d.ids.len() as u64;
            self.done_buf.insert(d.seq, d);
            while let Some(d) = self.done_buf.remove(&self.next_done) {
                self.next_done += 1;
                self.emit(d);
            }
        }
        self.dispatch_on_completion += self.dispatch(t);
        self.effects.drain(..)
    }

    /// Stage a weight artifact; it resolves at the pool-wide batch boundary
    /// (at once if no worker is busy), and nothing is dispatched until then.
    pub(crate) fn on_swap(&mut self, body: Vec<u8>) -> Drain<'_, Effect> {
        if self.draining {
            self.effects.push(Effect::Swap(SwapOutcome::Draining));
        } else {
            self.staged_swap = Some(body);
            self.resolve_swap_at_boundary();
        }
        self.effects.drain(..)
    }

    /// Refuse new work from here on. What is queued keeps leaving by the
    /// rule as workers come free; [`Pool::quiescent`] says when it is gone.
    pub(crate) fn on_drain(&mut self) {
        self.draining = true;
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// Nothing queued, nothing running, no swap staged.
    pub(crate) fn quiescent(&self) -> bool {
        self.queued() == 0 && !self.any_busy() && self.staged_swap.is_none()
    }

    /// Requests admitted and not yet dispatched.
    pub(crate) fn queued(&self) -> usize {
        self.batcher.queued()
    }

    /// The lowest-numbered idle worker.
    pub(crate) fn idle_worker(&self) -> Option<usize> {
        self.busy.iter().position(|b| !b)
    }

    fn any_busy(&self) -> bool {
        self.busy.contains(&true)
    }

    /// Is dispatch held: a staged swap waiting for the boundary, or the
    /// guarded first batch pending behind running work or in flight?
    pub(crate) fn barrier(&self) -> bool {
        self.staged_swap.is_some()
            || self.guard_inflight.is_some()
            || (self.cell.guard().is_some() && self.any_busy())
    }

    fn answer(&mut self, id: u64, outcome: WireOutcome) {
        self.effects.push(Effect::Answer { id, outcome });
    }

    /// Verify and publish (or reject) the staged artifact once no batch is
    /// in flight on any worker.
    fn resolve_swap_at_boundary(&mut self) {
        if self.any_busy() {
            return;
        }
        let Some(body) = self.staged_swap.take() else {
            return;
        };
        let outcome = match self.cell.load(&body, self.graph, false, None) {
            Ok(generation) => {
                self.effects
                    .push(Effect::Install(self.cell.current().weights()));
                SwapOutcome::Swapped {
                    generation,
                    fingerprint: self.cell.current().fingerprint(),
                }
            }
            Err(e) => SwapOutcome::Rejected {
                error: e.to_string(),
            },
        };
        self.effects.push(Effect::Swap(outcome));
    }

    /// The rule. Returns how many batches left.
    fn dispatch(&mut self, t: SimTime) -> u64 {
        self.resolve_swap_at_boundary();
        let mut sent = 0;
        while !self.barrier() {
            let Some(worker) = self.idle_worker() else {
                break;
            };
            let Some(batch) = self.batcher.take_oldest() else {
                break;
            };
            // Pair the batch with its payloads. A queued id without one is
            // bookkeeping skew: answer it with a typed failure, keep its
            // batchmates.
            let mut ids = Vec::with_capacity(batch.len());
            let mut inputs = Vec::with_capacity(batch.len());
            for r in batch {
                match self.payloads.remove(&r.id) {
                    Some(input) => {
                        ids.push(r.id);
                        inputs.push(input);
                        let waited = t.saturating_sub(r.enqueued).as_nanos() / 1_000;
                        self.queue_wait_us.observe(waited);
                    }
                    None => self.answer(r.id, WireOutcome::Failed),
                }
            }
            if ids.is_empty() {
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            // Past the barrier, a guard means this is the fresh
            // generation's first batch, and the pool is otherwise idle.
            let guard = self.cell.guard();
            if guard.is_some() {
                self.guard_inflight = Some(seq);
            }
            self.batch_size.observe(ids.len() as u64);
            self.busy[worker] = true;
            self.effects.push(Effect::Run {
                worker,
                batch: Batch {
                    seq,
                    ids,
                    inputs,
                    guard,
                },
            });
            sent += 1;
        }
        sent
    }

    /// Answer one merged batch. Generations are tagged at delivery time:
    /// installs land only at pool-wide batch boundaries, so the serving
    /// generation here is the one that ran the batch (or the rolled-back-to
    /// one that re-served it after a sentinel violation).
    fn emit(&mut self, d: WorkerDone) {
        self.workers[d.worker].batches += 1;
        self.workers[d.worker].requests += d.ids.len() as u64;
        let generation = self.cell.current().number();
        for (&id, &class) in d.ids.iter().zip(&d.classes) {
            self.answer(
                id,
                WireOutcome::Done {
                    class,
                    batch: d.ids.len(),
                    degraded: false,
                    generation,
                },
            );
        }
    }

    /// The engine-side half of the `/metrics` counter section: the
    /// weight-generation cell, queue depths, breaker and ladder state
    /// (`degraded` is the requests the degraded rung has served,
    /// `ladder` the breaker position 0/1/2), integrity counters, and the
    /// pool's per-worker and scratch counters. One `name value` pair per
    /// line, fixed order, no timestamps — the text is a pure function of the
    /// counters, so identical runs produce identical snapshots.
    pub(crate) fn metrics_text(&self, degraded: Option<u64>, ladder: u8) -> String {
        let mut out = Lines(String::new());
        let cell = &self.cell;
        let (current, previous) = (cell.current(), cell.previous());
        out.put("generation_current", current.number());
        let fingerprint = format_args!("{:#018x}", current.fingerprint());
        out.put("generation_current_fingerprint", fingerprint);
        let number = previous.map_or(-1, |p| p.number() as i64);
        out.put("generation_previous", number);
        let fingerprint = previous.map_or(0, |p| p.fingerprint());
        let fingerprint = format_args!("{fingerprint:#018x}");
        out.put("generation_previous_fingerprint", fingerprint);
        out.put("swaps_total", cell.swaps());
        out.put("rollbacks_total", cell.rollbacks());
        out.put("rejected_loads_total", cell.rejected_loads());
        out.put("quarantined_generations", cell.quarantined().len());
        out.put("queue_depth_full", self.queued());
        let batches: u64 = self.workers.iter().map(|c| c.batches).sum();
        let requests: u64 = self.workers.iter().map(|c| c.requests).sum();
        out.put("executed_batches_full", batches);
        out.put("executed_requests_full", requests);
        // The rung answers inline on the coordinator, so nothing ever waits
        // for it; the line stays for snapshot-format stability.
        out.put("queue_depth_degraded", 0);
        out.put("executed_requests_degraded", degraded.unwrap_or(0));
        out.put("breaker_state", ladder);
        out.put("ladder_degraded_configured", degraded.is_some() as u8);
        // The wire pool serves the plain path; the integrity state machine
        // lives in the cluster layer. The lines stay for snapshot-format
        // stability.
        for name in ["enabled", "detected", "recovered", "quarantined", "escaped"] {
            out.put(&format!("integrity_{name}"), 0);
        }
        // Pool counters: deterministic per-stage accounting for the worker
        // pool and the allocation-free steady state.
        out.put("pool_workers", self.workers.len());
        for (w, c) in self.workers.iter().enumerate() {
            out.put(&format!("pool_worker_{w}_batches"), c.batches);
            out.put(&format!("pool_worker_{w}_requests"), c.requests);
        }
        let scratch = self.workers.iter().map(|c| &c.scratch);
        let passes: u64 = scratch.clone().map(|s| s.passes).sum();
        let takes: u64 = scratch.clone().map(|s| s.arena_takes).sum();
        let hits: u64 = scratch.clone().map(|s| s.arena_hits).sum();
        let high_water = scratch.map(|s| s.high_water_bytes).max().unwrap_or(0);
        out.put("scratch_passes_total", passes);
        out.put("scratch_arena_takes_total", takes);
        out.put("scratch_arena_hits_total", hits);
        out.put("scratch_high_water_bytes", high_water);
        let (pool_takes, pool_hits) = harvest_tensor::scratch::counters();
        out.put("tensor_scratch_takes_total", pool_takes);
        out.put("tensor_scratch_hits_total", pool_hits);
        out.0
    }

    /// The engine-side half of the `/metrics` timing section: what the rule
    /// did (batches that left on a submission vs on a completion, how large,
    /// how long their requests had been queued) and how long workers held
    /// them. `worker_forward_us_sum` counts a batch once per request it
    /// carried, so it compares with the connection side's per-request
    /// `engine_round_trip_us_sum`; the difference is the hand-off cost.
    pub(crate) fn timing_text(&self, coordinator_wakeups: u64) -> String {
        let mut out = Lines(String::new());
        out.put("dispatch_on_submit_total", self.dispatch_on_submit);
        let on_completion = self.dispatch_on_completion;
        out.put("dispatch_on_completion_total", on_completion);
        out.put("coordinator_wakeups_total", coordinator_wakeups);
        out.put_buckets("batch_size", &self.batch_size);
        out.put_buckets("queue_wait_us", &self.queue_wait_us);
        out.put("worker_forward_us_sum", self.worker_busy_ns / 1_000);
        out.put("worker_forward_requests", self.worker_busy_requests);
        out.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_engine::encode_artifact;
    use harvest_models::{vit, VitConfig};
    use harvest_serving::ShedPolicy;
    use proptest::prelude::*;

    fn model() -> VitConfig {
        crate::WireConfig::default().model
    }

    /// A verified artifact for `model()`, and the same bytes with one bit
    /// flipped (refused at the integrity gate).
    fn artifacts(graph: &Graph) -> (Vec<u8>, Vec<u8>) {
        let good = encode_artifact(&MaterializedWeights::new(
            graph,
            &WeightStore::new(99),
            false,
        ));
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        (good, bad)
    }

    /// Plays the shell and the workers: performs every effect into plain
    /// records and checks, after every event, the invariants no event may
    /// break. Time is virtual: it moves only when a test sets `now`.
    struct Rig<'g> {
        pool: Pool<'g>,
        preferred: usize,
        /// The virtual clock, microseconds.
        now: u64,
        /// What each worker holds, and until when (each batch, whatever its
        /// size, holds its worker for `S`).
        running: Vec<Option<Batch>>,
        free_at: Vec<u64>,
        /// Every `Run` effect: (worker, seq, ids, guarded).
        runs: Vec<(usize, u64, Vec<u64>, bool)>,
        answers: Vec<(u64, WireOutcome)>,
        swaps: Vec<SwapOutcome>,
        installs: usize,
    }

    impl<'g> Rig<'g> {
        fn new(graph: &'g Graph, width: usize, batcher: BatcherConfig) -> Self {
            Rig {
                pool: Pool::new(graph, 7, batcher, width),
                preferred: batcher.preferred_batch as usize,
                now: 0,
                running: (0..width).map(|_| None).collect(),
                free_at: vec![0; width],
                runs: Vec::new(),
                answers: Vec::new(),
                swaps: Vec::new(),
                installs: 0,
            }
        }

        fn absorb(&mut self, effects: Vec<Effect>) {
            for effect in effects {
                match effect {
                    Effect::Run { worker, batch } => {
                        assert!(self.running[worker].is_none(), "worker {worker} was busy");
                        assert!(!batch.ids.is_empty() && batch.ids.len() <= self.preferred);
                        assert_eq!(batch.ids.len(), batch.inputs.len());
                        let guarded = batch.guard.is_some();
                        if guarded {
                            assert!(
                                self.running.iter().all(Option::is_none),
                                "the guarded batch runs solo"
                            );
                        }
                        self.runs
                            .push((worker, batch.seq, batch.ids.clone(), guarded));
                        self.running[worker] = Some(batch);
                        self.free_at[worker] = self.now + S;
                    }
                    Effect::Install(_) => {
                        assert!(
                            self.running.iter().all(Option::is_none),
                            "installs land at the pool-wide boundary"
                        );
                        self.installs += 1;
                    }
                    Effect::Answer { id, outcome } => self.answers.push((id, outcome)),
                    Effect::Swap(outcome) => self.swaps.push(outcome),
                }
            }
            let busy: Vec<bool> = self.running.iter().map(Option::is_some).collect();
            assert_eq!(
                self.pool.busy, busy,
                "busy set out of step with the effects"
            );
            // Work conservation: an idle worker and no barrier means there is
            // nothing left to give it.
            if self.pool.idle_worker().is_some() && !self.pool.barrier() {
                assert_eq!(
                    self.pool.queued(),
                    0,
                    "a request waits beside an idle worker"
                );
            }
            if !busy.contains(&true) {
                let guard_pending =
                    self.pool.cell.guard().is_some() && self.pool.guard_inflight.is_none();
                assert!(!self.pool.barrier() || guard_pending);
            }
        }

        fn submit(&mut self, id: u64) {
            let t = SimTime::from_micros(self.now);
            let effects = self.pool.on_submit(id, Tensor::zeros(&[1]), t).collect();
            self.absorb(effects);
        }

        /// Worker `worker` reports on what it holds; `violate` makes a
        /// guarded run trip the sentinel.
        fn complete(&mut self, worker: usize, violate: bool) {
            let batch = self.running[worker].take().expect("worker holds a batch");
            let violation = violate && batch.guard.is_some();
            let t = SimTime::from_micros(self.now);
            let done = WorkerDone {
                seq: batch.seq,
                worker,
                classes: if violation {
                    Vec::new()
                } else {
                    batch.ids.iter().map(|id| (id % 4) as usize).collect()
                },
                ids: batch.ids,
                violation,
                inputs: if violation { batch.inputs } else { Vec::new() },
                scratch: ScratchStats::default(),
                busy_ns: 1_000,
            };
            let effects = self.pool.on_done(done, t).collect();
            self.absorb(effects);
        }

        fn swap(&mut self, body: &[u8]) {
            let effects = self.pool.on_swap(body.to_vec()).collect();
            self.absorb(effects);
        }

        fn busy_workers(&self) -> Vec<usize> {
            (0..self.running.len())
                .filter(|&w| self.running[w].is_some())
                .collect()
        }

        fn done_ids(&self) -> Vec<u64> {
            self.answers
                .iter()
                .filter(|(_, o)| matches!(o, WireOutcome::Done { .. }))
                .map(|&(id, _)| id)
                .collect()
        }
    }

    fn batcher(preferred: u32) -> BatcherConfig {
        BatcherConfig::new(preferred, SimTime::from_millis(5))
    }

    /// One batch's virtual service time, microseconds.
    const S: u64 = 1_000;
    /// The closed loop: clients, and requests each client sends in turn.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;

    /// `CLIENTS` closed-loop clients against a pool of `width`, in virtual
    /// time: each batch holds its worker for `S`, the busy worker that
    /// finishes first (the lowest index on a tie) reports next, and every
    /// answer sends its client's next request at that same instant. Returns
    /// the makespan and the rig, with no clock, thread or socket involved.
    fn closed_loop(graph: &Graph, width: usize, preferred: u32) -> (u64, Rig<'_>) {
        let mut rig = Rig::new(graph, width, batcher(preferred));
        let mut client_of: Vec<usize> = (0..CLIENTS).collect();
        for id in 0..CLIENTS as u64 {
            rig.submit(id);
        }
        let earliest = |rig: &Rig| {
            rig.busy_workers()
                .into_iter()
                .min_by_key(|&w| rig.free_at[w])
        };
        while let Some(worker) = earliest(&rig) {
            rig.now = rig.free_at[worker];
            let heard = rig.answers.len();
            rig.complete(worker, false);
            for i in heard..rig.answers.len() {
                let client = client_of[rig.answers[i].0 as usize];
                if client_of.iter().filter(|&&c| c == client).count() < PER_CLIENT {
                    rig.submit(client_of.len() as u64);
                    client_of.push(client);
                }
            }
        }
        (rig.now, rig)
    }

    #[test]
    fn a_pool_of_w_finishes_a_closed_loop_w_times_sooner_in_virtual_time() {
        let graph = vit("pool-test", &model());
        let total = CLIENTS * PER_CLIENT;
        for preferred in [1, 4] {
            for width in [1, 2, 4, 8] {
                let what = format!("width {width}, preferred_batch {preferred}");
                let (makespan, rig) = closed_loop(&graph, width, preferred);
                assert_eq!(rig.done_ids().len(), total, "{what}");
                assert!(rig.pool.quiescent(), "{what}");
                // Batches of one at a fixed cost: no worker idles while a
                // request waits, so w workers serve 32 requests in 32/w
                // rounds. A batch costs what one request does, so batching
                // can only shorten that.
                let rounds = (total / width) as u64;
                if preferred == 1 {
                    assert_eq!(makespan, rounds * S, "{what}");
                } else {
                    assert!(makespan <= rounds * S, "{what}: {makespan}");
                }
                let (again, rerun) = closed_loop(&graph, width, preferred);
                assert_eq!(again, makespan, "{what}");
                assert_eq!(rerun.runs, rig.runs, "{what}: the dispatch log");
                assert_eq!(
                    rerun.pool.batch_size.counts, rig.pool.batch_size.counts,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn an_idle_worker_takes_one_request_at_once_as_a_batch_of_one() {
        let graph = vit("pool-test", &model());
        let mut rig = Rig::new(&graph, 2, batcher(4));
        rig.submit(0);
        assert_eq!(rig.runs, vec![(0, 0, vec![0], false)]);
        rig.submit(1);
        assert_eq!(rig.runs[1], (1, 1, vec![1], false), "lowest idle worker");
        assert_eq!(rig.pool.queued(), 0);
        assert_eq!(rig.pool.dispatch_on_submit, 2);
        assert_eq!(rig.pool.batch_size.counts, [2, 2, 2, 2, 2]);
        assert_eq!(rig.pool.queue_wait_us.counts[0], 2, "nothing waited");
        // Completions come home out of order; answers leave in seq order.
        rig.complete(1, false);
        assert!(rig.answers.is_empty(), "seq 1 waits for seq 0");
        rig.complete(0, false);
        assert_eq!(rig.done_ids(), vec![0, 1]);
        assert_eq!(rig.pool.dispatch_on_completion, 0);
    }

    #[test]
    fn batches_form_only_while_every_worker_is_busy() {
        let graph = vit("pool-test", &model());
        let mut rig = Rig::new(&graph, 2, batcher(4));
        for id in 0..9 {
            rig.submit(id);
        }
        assert_eq!(rig.runs.len(), 2, "two workers, two batches of one");
        assert_eq!(rig.pool.queued(), 7);
        // The freed worker takes min(queued, preferred_batch) as one batch.
        rig.complete(1, false);
        assert_eq!(rig.runs[2], (1, 2, vec![2, 3, 4, 5], false));
        assert_eq!(rig.pool.queued(), 3);
        rig.complete(0, false);
        assert_eq!(rig.runs[3], (0, 3, vec![6, 7, 8], false));
        assert_eq!(rig.pool.queued(), 0);
        assert_eq!(
            (rig.pool.dispatch_on_submit, rig.pool.dispatch_on_completion),
            (2, 2)
        );
        assert_eq!(rig.pool.batch_size.counts, [2, 2, 4, 4, 4]);
        rig.complete(0, false);
        rig.complete(1, false);
        assert_eq!(rig.done_ids(), (0..9).collect::<Vec<_>>());
        assert!(rig.pool.quiescent());
    }

    #[test]
    fn the_queue_bound_governs_everything_not_yet_running() {
        let graph = vit("pool-test", &model());
        let mut config = batcher(4);
        config.max_queue = 1;
        let mut rig = Rig::new(&graph, 2, config);
        for id in 0..5 {
            rig.submit(id);
        }
        // Two run, one queues, two are refused — at once, typed.
        assert_eq!(rig.runs.len(), 2);
        assert_eq!(rig.pool.queued(), 1);
        assert_eq!(
            rig.answers,
            vec![(3, WireOutcome::Rejected), (4, WireOutcome::Rejected)]
        );
        // DropOldest sheds the queued one instead.
        config.shed = ShedPolicy::DropOldest;
        let mut rig = Rig::new(&graph, 2, config);
        for id in 0..4 {
            rig.submit(id);
        }
        assert_eq!(rig.answers, vec![(2, WireOutcome::Shed)]);
        assert_eq!(rig.pool.queued(), 1);
    }

    #[test]
    fn nothing_leaves_under_a_swap_or_a_guard_and_the_guarded_batch_runs_solo() {
        let graph = vit("pool-test", &model());
        let (good, bad) = artifacts(&graph);
        let mut rig = Rig::new(&graph, 2, batcher(2));
        rig.submit(0);
        rig.swap(&good);
        assert!(rig.swaps.is_empty(), "staged until the pool-wide boundary");
        rig.submit(1);
        rig.submit(2);
        rig.submit(3);
        assert_eq!(rig.runs.len(), 1, "worker 1 is idle, the barrier holds");
        assert_eq!(rig.pool.queued(), 3);
        // The boundary: the swap publishes, installs, and the oldest
        // requests leave as the guarded batch — alone.
        rig.complete(0, false);
        assert_eq!(rig.installs, 1);
        assert!(matches!(
            rig.swaps[..],
            [SwapOutcome::Swapped { generation: 1, .. }]
        ));
        assert_eq!(rig.runs[1], (0, 1, vec![1, 2], true));
        assert_eq!(rig.pool.queued(), 1, "request 3 waits out the guard");
        rig.submit(4);
        assert_eq!(rig.runs.len(), 2);
        // Its clean verdict proves the generation and lifts the barrier.
        rig.complete(0, false);
        assert_eq!(rig.runs[2], (0, 2, vec![3, 4], false));
        match rig.answers[..] {
            [(0, WireOutcome::Done { generation: 0, .. }), (
                1,
                WireOutcome::Done {
                    generation: 1,
                    batch: 2,
                    ..
                },
            ), (2, WireOutcome::Done { generation: 1, .. })] => {}
            ref other => panic!("{other:?}"),
        }
        // A refused artifact changes nothing and arms no guard.
        rig.swap(&bad);
        rig.complete(0, false);
        assert!(matches!(rig.swaps[1], SwapOutcome::Rejected { .. }));
        assert_eq!(rig.installs, 1);
        rig.submit(5);
        assert_eq!(rig.runs[3], (0, 3, vec![5], false));
        // A swap staged on an idle pool resolves at once.
        rig.complete(0, false);
        rig.swap(&good);
        assert!(matches!(
            rig.swaps[2],
            SwapOutcome::Swapped { generation: 2, .. }
        ));
    }

    #[test]
    fn a_violation_rolls_back_and_re_serves_on_the_reporting_worker() {
        let graph = vit("pool-test", &model());
        let (good, _) = artifacts(&graph);
        let mut rig = Rig::new(&graph, 3, batcher(2));
        rig.swap(&good);
        rig.submit(0);
        rig.submit(1);
        assert_eq!(rig.runs, vec![(0, 0, vec![0], true)]);
        rig.complete(0, true);
        // Rolled back everywhere, the same batch on the same worker,
        // unguarded; the barrier is down so request 1 leaves too.
        assert_eq!(rig.installs, 2, "publish + rollback");
        assert_eq!(rig.runs[1], (0, 0, vec![0], false));
        assert_eq!(rig.runs[2], (1, 1, vec![1], false));
        assert!(rig.answers.is_empty(), "nobody hears from generation 1");
        rig.complete(0, false);
        rig.complete(1, false);
        for (_, outcome) in &rig.answers {
            assert!(matches!(outcome, WireOutcome::Done { generation: 0, .. }));
        }
        assert_eq!(rig.done_ids(), vec![0, 1]);
        let text = rig.pool.metrics_text(None, 0);
        for line in [
            "generation_current 0",
            "rollbacks_total 1",
            "quarantined_generations 1",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn a_drain_refuses_new_work_and_lets_the_queue_leave_by_the_rule() {
        let graph = vit("pool-test", &model());
        let (good, _) = artifacts(&graph);
        let mut rig = Rig::new(&graph, 1, batcher(2));
        for id in 0..4 {
            rig.submit(id);
        }
        rig.pool.on_drain();
        rig.submit(4);
        rig.swap(&good);
        assert_eq!(rig.answers, vec![(4, WireOutcome::Rejected)]);
        assert_eq!(rig.swaps, vec![SwapOutcome::Draining]);
        assert!(!rig.pool.quiescent());
        rig.complete(0, false);
        rig.complete(0, false);
        assert!(!rig.pool.quiescent(), "request 3 is still running");
        rig.complete(0, false);
        assert!(rig.pool.quiescent());
        assert_eq!(rig.done_ids(), vec![0, 1, 2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn every_interleaving_dispatches_and_answers_each_request_exactly_once(
            // (kind, arg): kinds 0..=5 submit, 6..=8 complete the
            // `arg`-th busy worker (a guarded run violates when `arg` is
            // odd), 9 swap (a bad artifact when `arg` is odd), 10 drain
            // (one time in four).
            ops in proptest::collection::vec((0u8..11, 0u64..64), 1..250),
            width_pick in 0usize..4,
            preferred in 1u32..6,
            max_queue in 0usize..8,
            drop_oldest in any::<bool>(),
        ) {
            let graph = vit("pool-test", &model());
            let (good, bad) = artifacts(&graph);
            let mut config = batcher(preferred);
            config.max_queue = max_queue;
            if drop_oldest {
                config.shed = ShedPolicy::DropOldest;
            }
            let mut rig = Rig::new(&graph, [1, 2, 3, 8][width_pick], config);
            let mut submitted = 0u64;
            let mut swaps = 0usize;
            for &(kind, arg) in &ops {
                match kind {
                    0..=5 => {
                        rig.submit(submitted);
                        submitted += 1;
                    }
                    6..=8 => {
                        let busy = rig.busy_workers();
                        if !busy.is_empty() {
                            rig.complete(busy[arg as usize % busy.len()], arg % 2 == 1);
                        }
                    }
                    // The HTTP layer stages one swap at a time.
                    9 if rig.swaps.len() == swaps => {
                        rig.swap(if arg % 2 == 1 { &bad } else { &good });
                        swaps += 1;
                    }
                    10 if arg % 4 == 0 => rig.pool.on_drain(),
                    _ => {}
                }
            }
            // Let it settle: drain, then bring every batch home.
            rig.pool.on_drain();
            while let Some(&worker) = rig.busy_workers().first() {
                rig.complete(worker, false);
            }
            prop_assert!(rig.pool.quiescent());
            prop_assert_eq!(rig.swaps.len(), swaps, "one verdict per staged swap");

            // Answered exactly once, whatever the answer.
            let mut answered: Vec<u64> = rig.answers.iter().map(|&(id, _)| id).collect();
            answered.sort_unstable();
            prop_assert_eq!(answered, (0..submitted).collect::<Vec<_>>());
            // Dispatched exactly once (a re-serve after a violation repeats
            // its seq on its worker, unguarded), and only if it was served.
            let mut dispatched: Vec<u64> = Vec::new();
            let mut seq_of = std::collections::HashMap::new();
            for (i, (worker, seq, ids, guarded)) in rig.runs.iter().enumerate() {
                prop_assert!(ids.len() <= preferred as usize);
                match rig.runs[..i].iter().find(|r| r.1 == *seq) {
                    Some(first) => prop_assert!(
                        first.3 && !guarded && first.0 == *worker && first.2 == *ids,
                        "seq {} ran twice without a violation", seq
                    ),
                    None => {
                        prop_assert_eq!(*seq, seq_of.len() as u64, "seq numbers dispatches");
                        seq_of.insert(*seq, ids.clone());
                        dispatched.extend(ids);
                    }
                }
            }
            dispatched.sort_unstable();
            let done = rig.done_ids();
            let mut served = done.clone();
            served.sort_unstable();
            prop_assert_eq!(&dispatched, &served);
            // Emitted in seq order, ids in batch order.
            let in_seq_order: Vec<u64> = (0..seq_of.len() as u64)
                .flat_map(|seq| seq_of[&seq].clone())
                .collect();
            prop_assert_eq!(done, in_seq_order);
        }
    }
}
