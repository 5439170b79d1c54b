//! Real-execution serving: the dynamic batcher driving actual host
//! inference.
//!
//! The simulated pipeline ([`crate::server`]) answers latency questions
//! against the calibrated performance model; this module closes the loop on
//! the *computation* side: requests carry real input tensors, the
//! [`DynamicBatcher`] decides when a batch dispatches (size or delay
//! trigger, shed policies included), and dispatched batches run through
//! [`Executor::run`] — the batched, weight-cached engine — so every
//! completion carries real logits. One batcher decision layer, two
//! backends: the DES uses modeled service times, this one does the math.
//!
//! Dispatched batches run under the `harvest-threads` work pool (GEMM row
//! blocks, per-image conv, per-(image, head) attention fan out across
//! cores). The pool's determinism contract means the logits a completion
//! carries are bit-identical at every `HARVEST_THREADS` setting — the
//! thread-invariance test below pins this, and the integrity layer's
//! bit-exact oracle comparisons rely on it.

use crate::batcher::{BatcherConfig, BatcherConfigError, DynamicBatcher, QueuedRequest};
use crate::integrity::{IntegrityStats, NodeIntegrity, DETECT_TOL, ESCAPE_TOL};
use harvest_engine::{ActivationInjection, ArtifactError, Executor, WeightsCell};
use harvest_simkit::SimTime;
use harvest_tensor::integrity::max_abs_gap;
use harvest_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// A finished request: real logits plus the batch it rode in.
#[derive(Debug)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Model output (logits for the zoo's classifiers).
    pub output: Tensor,
    /// Size of the dispatched batch this request was part of.
    pub batch_size: usize,
    /// Number of the weight generation that served this request. A batch
    /// in flight when a swap lands finishes on the generation it started
    /// with; a rolled-back batch is tagged with the generation it was
    /// re-served on — a quarantined generation's number never appears here.
    pub generation: u64,
}

/// Outcome of submitting one request.
#[derive(Debug, Default)]
pub struct Submission {
    /// Was the request admitted to the queue?
    pub admitted: bool,
    /// Ids of queued requests shed to make room (payloads are dropped).
    pub shed: Vec<u64>,
    /// Completions, when the submission fired the size trigger.
    pub completed: Vec<Completion>,
}

/// Internal-state skew detected on the serving hot path.
///
/// These are "can't happen" conditions — invariants the batcher/payload
/// bookkeeping is supposed to make impossible. With a wire attached they
/// must surface as a 500 for the affected request, never as a process
/// panic: one skewed request must not take down every other connection on
/// the box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFault {
    /// A dispatched batch referenced a queued id whose payload was missing
    /// from the pending map. The request cannot execute; its id is reported
    /// so the frontend can answer it with an explicit error.
    MissingPayload {
        /// The orphaned request id.
        id: u64,
    },
}

impl std::fmt::Display for ServeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeFault::MissingPayload { id } => {
                write!(f, "dispatched request {id} had no pending payload")
            }
        }
    }
}

/// A serving frontend that batches real inference requests and executes
/// dispatched batches on the host engine.
pub struct RealBatchServer<'g> {
    exec: Executor<'g>,
    batcher: DynamicBatcher,
    pending: HashMap<u64, Tensor>,
    executed_batches: u64,
    executed_requests: u64,
    /// Integrity state machine (fault injection + detection + recovery);
    /// `None` keeps the plain path, bit-identical to the pre-integrity
    /// server.
    integrity: Option<NodeIntegrity<'g>>,
    /// Requests whose batch was quarantined: id + payload, awaiting the
    /// cluster's sibling re-dispatch.
    failed: Vec<(u64, Tensor)>,
    /// Internal-state skews observed on the hot path (see [`ServeFault`]).
    faults: Vec<ServeFault>,
    /// The double-buffered weight-generation cell: the generation serving
    /// now plus the retained previous one, with the swap/rollback ledger.
    /// It decides each generation's lifecycle (load, guard, settle).
    cell: WeightsCell,
}

impl<'g> RealBatchServer<'g> {
    /// New server over an executor and a batching policy.
    pub fn new(exec: Executor<'g>, config: BatcherConfig) -> Result<Self, BatcherConfigError> {
        let cell = WeightsCell::new(exec.weights_handle());
        Ok(RealBatchServer {
            exec,
            batcher: DynamicBatcher::new(config)?,
            pending: HashMap::new(),
            executed_batches: 0,
            executed_requests: 0,
            integrity: None,
            failed: Vec::new(),
            faults: Vec::new(),
            cell,
        })
    }

    /// A server whose batches run through the integrity state machine:
    /// fault injection from the node's plan, the configured detector
    /// ladder, re-materialize-and-retry recovery, and quarantine when the
    /// retry also fails.
    pub(crate) fn with_integrity(
        exec: Executor<'g>,
        config: BatcherConfig,
        integrity: NodeIntegrity<'g>,
    ) -> Result<Self, BatcherConfigError> {
        let mut server = Self::new(exec, config)?;
        server.integrity = Some(integrity);
        Ok(server)
    }

    /// The node's integrity counters, when integrity is enabled.
    pub(crate) fn integrity_stats(&self) -> Option<&IntegrityStats> {
        self.integrity.as_ref().map(|i| &i.stats)
    }

    /// Has this node been quarantined by the integrity layer?
    pub(crate) fn is_quarantined(&self) -> bool {
        self.integrity.as_ref().is_some_and(|i| i.quarantined)
    }

    /// Drain the requests whose batches failed under quarantine (id +
    /// payload), for re-dispatch elsewhere.
    pub(crate) fn take_failed(&mut self) -> Vec<(u64, Tensor)> {
        std::mem::take(&mut self.failed)
    }

    /// Drain the internal-state skews observed since the last call. A wire
    /// frontend maps each to a 500 for the affected request; an empty list
    /// is the steady state.
    pub fn take_faults(&mut self) -> Vec<ServeFault> {
        std::mem::take(&mut self.faults)
    }

    /// Drop a pending payload, simulating bookkeeping skew between the
    /// batcher queue and the payload map (test hook for the fault path).
    #[cfg(test)]
    fn drop_payload(&mut self, id: u64) {
        self.pending.remove(&id);
    }

    /// The executor backing this server.
    pub fn executor(&self) -> &Executor<'g> {
        &self.exec
    }

    /// Scratch-reuse counters of the backing executor: forward passes
    /// served, arena takes/hits, high-water pooled bytes. Surfaces in the
    /// wire `/metrics` endpoint.
    pub fn scratch_stats(&self) -> harvest_engine::ScratchStats {
        self.exec.scratch_stats()
    }

    /// The weight-generation cell: current/previous generation, swap,
    /// rollback and rejected-load counters, quarantined generations.
    pub fn weights_cell(&self) -> &WeightsCell {
        &self.cell
    }

    /// Number of the generation currently serving.
    pub fn generation(&self) -> u64 {
        self.cell.current().number()
    }

    /// Verify `bytes` as a weight artifact and, when every check passes,
    /// publish it as the next generation and install it for serving — the
    /// next dispatched batch runs on it, under the cell's swap sentinel.
    /// Any framing, manifest or checksum failure, or a simulated loader
    /// crash after `crash_after` tensors, is a typed error, counts as a
    /// rejected load, and leaves the serving generation untouched.
    pub fn swap_artifact(
        &mut self,
        bytes: &[u8],
        crash_after: Option<u64>,
    ) -> Result<u64, ArtifactError> {
        let graph = self.exec.graph();
        let int8 = self.exec.int8_linears();
        let number = self.cell.load(bytes, graph, int8, crash_after)?;
        let weights = self.cell.current().weights();
        self.exec.install_weights(Arc::clone(&weights));
        if let Some(intg) = self.integrity.as_mut() {
            // The oracle tracks published generations so post-swap
            // cross-checks and dispositions compare against the new clean
            // weights (its copy is never injection-targeted).
            intg.oracle.install_weights(weights);
        }
        Ok(number)
    }

    /// Requests admitted but not yet dispatched.
    pub fn queued(&self) -> usize {
        self.batcher.queued()
    }

    /// Batches actually executed so far.
    pub fn executed_batches(&self) -> u64 {
        self.executed_batches
    }

    /// Requests actually executed so far.
    pub fn executed_requests(&self) -> u64 {
        self.executed_requests
    }

    /// Submit a request. The batcher may reject it (bounded queue), shed
    /// older requests, or dispatch a full batch — in which case the batch
    /// is executed immediately and its completions returned.
    pub fn submit(&mut self, id: u64, input: Tensor, now: SimTime) -> Submission {
        let admission = self.batcher.offer(id, now, now, None);
        let mut out = Submission {
            admitted: admission.admitted,
            ..Submission::default()
        };
        if admission.admitted {
            self.pending.insert(id, input);
        }
        for victim in admission.shed {
            // Shed requests never execute: drop the payload with them.
            self.pending.remove(&victim.id);
            out.shed.push(victim.id);
        }
        if let Some(batch) = admission.batch {
            out.completed = self.run_batch(&batch);
        }
        out
    }

    /// Fire the delay trigger: execute the waiting partial batch if the
    /// oldest request has exceeded the queue-delay bound.
    pub fn poll(&mut self, now: SimTime) -> Vec<Completion> {
        match self.batcher.poll(now).batch {
            Some(batch) => self.run_batch(&batch),
            None => Vec::new(),
        }
    }

    /// Drain every queued request immediately (end-of-stream flush),
    /// executing the remaining partial batches.
    pub fn flush(&mut self) -> Vec<Completion> {
        let batches = self.batcher.flush();
        batches
            .iter()
            .flat_map(|batch| self.run_batch(batch))
            .collect()
    }

    fn run_batch(&mut self, batch: &[QueuedRequest]) -> Vec<Completion> {
        // Pair each queued id with its payload. A queued id without a
        // payload is bookkeeping skew ("can't happen"): record a typed
        // fault for the frontend to answer with a 500 and execute the rest
        // of the batch — one skewed request must not fail its batchmates.
        let mut ids: Vec<u64> = Vec::with_capacity(batch.len());
        let mut inputs: Vec<Tensor> = Vec::with_capacity(batch.len());
        for r in batch {
            match self.pending.remove(&r.id) {
                Some(input) => {
                    ids.push(r.id);
                    inputs.push(input);
                }
                None => self.faults.push(ServeFault::MissingPayload { id: r.id }),
            }
        }
        if ids.is_empty() {
            return Vec::new();
        }
        let outputs = match self.integrity.as_mut() {
            Some(intg) => {
                match run_batch_integrity(&mut self.exec, &mut self.cell, intg, &inputs) {
                    Some(outputs) => outputs,
                    None => {
                        // Quarantined: the batch failed, nothing completes.
                        self.failed.extend(ids.into_iter().zip(inputs));
                        return Vec::new();
                    }
                }
            }
            None => self.run_batch_plain(&inputs),
        };
        self.executed_batches += 1;
        self.executed_requests += ids.len() as u64;
        let batch_size = ids.len();
        // Tagged after execution: if the batch triggered a rollback it was
        // re-served on (and is attributed to) the rolled-back-to generation.
        let generation = self.cell.current().number();
        ids.iter()
            .zip(outputs)
            .map(|(&id, output)| Completion {
                id,
                output,
                batch_size,
                generation,
            })
            .collect()
    }

    /// The plain execution path, with one swap hook: a freshly published
    /// generation's first batch runs under the cell's sentinel. A violation
    /// means the artifact passed its checksums but computes garbage (a
    /// poisoned producer): the cell rolls the swap back and the batch is
    /// re-served on the retained previous generation — no request is ever
    /// answered from the bad one.
    fn run_batch_plain(&mut self, inputs: &[Tensor]) -> Vec<Tensor> {
        let guard = self.cell.guard();
        let mut sink = Vec::new();
        let run = self.exec.run(inputs, guard.as_ref(), None, &mut sink);
        if let Some(weights) = self.cell.settle(run.violation.is_some()) {
            self.exec.install_weights(weights);
            return self.exec.forward_batch(inputs);
        }
        self.exec.outputs(&sink, run.per_image)
    }
}

/// The integrity state machine for one dispatched batch. Returns the outputs
/// to emit, or `None` when the batch was quarantined (the caller moves its
/// requests to the failed list).
///
/// Per batch: inject weight flips (round-keyed, so reruns replay
/// identically) → attempt 0: verify checksums, run the guarded forward with
/// activation injection, cross-check against the clean oracle → on any
/// detection, the weight cell settles the violation and the weights it names
/// are reinstalled (re-injecting when the fault is sticky — a failing cell,
/// not a transient hit) and the batch is retried once with fresh activation
/// coins → a second detection quarantines the node. Every emitted batch is
/// classified against the clean oracle: bit-identical (`clean`), within
/// tolerance (`masked`), or materially wrong (`escaped`).
fn run_batch_integrity(
    exec: &mut Executor<'_>,
    cell: &mut WeightsCell,
    intg: &mut NodeIntegrity<'_>,
    inputs: &[Tensor],
) -> Option<Vec<Tensor>> {
    if intg.quarantined {
        return None;
    }
    let round = intg.stats.batches;
    intg.stats.batches += 1;
    intg.stats.injected_weight_flips += exec.inject_weight_flips(&intg.plan, round);

    for attempt in 0..=1u32 {
        if !(intg.config.weight_checksums && exec.verify_weights().is_err()) {
            let inj_ctx = ActivationInjection {
                plan: &intg.plan,
                batch: round,
                attempt,
            };
            let inject = intg.plan.corrupts_activations().then_some(&inj_ctx);
            let mut sink = Vec::new();
            let run = exec.run(inputs, intg.config.guard.as_ref(), inject, &mut sink);
            intg.stats.injected_activation_flips += run.activation_flips;
            if run.violation.is_none() {
                // The oracle executor tracks published generations and is
                // never injection-targeted: its outputs are both the
                // cross-check's reference and the ground truth the emitted
                // batch is classified against.
                let outs = exec.outputs(&sink, run.per_image);
                let clean = intg.oracle.forward_batch(inputs);
                let mismatch = intg.config.cross_checks(round)
                    && outs
                        .iter()
                        .zip(&clean)
                        .any(|(y, c)| max_abs_gap(c.data(), y.data()) > DETECT_TOL);
                if !mismatch {
                    // Attempt 1 runs only after a detection.
                    if attempt == 1 {
                        intg.stats.recovered += 1;
                    }
                    // Ground-truth disposition of what we are about to emit.
                    let mut worst = 0.0f32;
                    let mut bit_identical = true;
                    for (y, c) in outs.iter().zip(&clean) {
                        if y.data() != c.data() {
                            bit_identical = false;
                            worst = worst.max(max_abs_gap(y.data(), c.data()));
                        }
                    }
                    if bit_identical {
                        intg.stats.clean += 1;
                    } else if worst > ESCAPE_TOL {
                        intg.stats.escaped += 1;
                    } else {
                        intg.stats.masked += 1;
                    }
                    // The generation carried a batch through the full
                    // ladder: it has proven itself on live traffic.
                    cell.settle(false);
                    return Some(outs);
                }
            }
        }
        if attempt == 1 {
            intg.stats.quarantined += 1;
            intg.quarantined = true;
            return None;
        }
        intg.stats.detected += 1;
        // The cell names the recovery: a freshly published generation
        // failing its very first checks is a bad artifact that slipped the
        // load gate, rolled back and quarantined; a proven generation
        // failing means in-memory corruption, and the pristine bits of the
        // *same* generation are reinstalled (the cell's copy is never
        // injection-targeted, thanks to copy-on-write).
        if let Some(weights) = cell.settle(true) {
            exec.install_weights(Arc::clone(&weights));
            intg.oracle.install_weights(weights);
        }
        if intg.plan.weight_flips_sticky() {
            // The failing cell corrupts the fresh copy too: same round key,
            // identical flips.
            intg.stats.injected_weight_flips += exec.inject_weight_flips(&intg.plan, round);
        }
    }
    unreachable!("attempt loop emits or quarantines")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ShedPolicy;
    use harvest_models::{vit, VitConfig};

    fn tiny_graph() -> harvest_models::Graph {
        vit(
            "tiny-serving",
            &VitConfig {
                dim: 32,
                depth: 1,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            },
        )
    }

    fn input(seed: u64) -> Tensor {
        Tensor::random(&[3, 16, 16], seed, 1.0)
    }

    #[test]
    fn size_trigger_executes_batch_with_real_logits() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(3, SimTime::from_millis(100)),
        )
        .expect("valid config");
        assert!(server
            .submit(0, input(1), SimTime::ZERO)
            .completed
            .is_empty());
        assert!(server
            .submit(1, input(2), SimTime::ZERO)
            .completed
            .is_empty());
        let out = server.submit(2, input(3), SimTime::ZERO);
        assert_eq!(out.completed.len(), 3, "size trigger fired");
        for (i, c) in out.completed.iter().enumerate() {
            assert_eq!(c.id, i as u64);
            assert_eq!(c.batch_size, 3);
            // Batched serving returns exactly what a direct forward would.
            assert_eq!(c.output, oracle.forward(&input(i as u64 + 1)));
        }
        assert_eq!(server.executed_batches(), 1);
        assert_eq!(server.executed_requests(), 3);
    }

    #[test]
    fn delay_trigger_executes_partial_batch() {
        let g = tiny_graph();
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(8, SimTime::from_millis(10)),
        )
        .expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::from_millis(1));
        assert!(server.poll(SimTime::from_millis(9)).is_empty());
        let done = server.poll(SimTime::from_millis(10));
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.batch_size == 2));
        assert_eq!(server.queued(), 0);
    }

    #[test]
    fn shed_requests_drop_their_payload() {
        let g = tiny_graph();
        let mut config = BatcherConfig::new(32, SimTime::from_millis(1000));
        config.max_queue = 2;
        config.shed = ShedPolicy::DropOldest;
        let mut server = RealBatchServer::new(Executor::new(&g, 7), config).expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::ZERO);
        let out = server.submit(2, input(3), SimTime::ZERO);
        assert!(out.admitted);
        assert_eq!(out.shed, vec![0], "oldest request gives way");
        // The shed payload is gone; the survivors still execute.
        let done = server.flush();
        assert_eq!(done.len(), 2);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(server.executed_requests(), 2);
    }

    #[test]
    fn rejected_requests_keep_no_payload() {
        let g = tiny_graph();
        let mut config = BatcherConfig::new(32, SimTime::from_millis(1000));
        config.max_queue = 1;
        let mut server = RealBatchServer::new(Executor::new(&g, 7), config).expect("valid config");
        assert!(server.submit(0, input(1), SimTime::ZERO).admitted);
        let out = server.submit(1, input(2), SimTime::ZERO);
        assert!(!out.admitted, "bounded queue rejects");
        let done = server.flush();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 0);
    }

    #[test]
    fn full_queue_conserves_every_request_exactly_once() {
        // Under sustained overload with a bounded queue and DropOldest,
        // every submitted id must end up in exactly one of
        // {completed, shed, rejected} — none lost, none duplicated.
        let g = tiny_graph();
        let mut config = BatcherConfig::new(4, SimTime::from_millis(1000));
        config.max_queue = 3;
        config.shed = ShedPolicy::DropOldest;
        let mut server = RealBatchServer::new(Executor::new(&g, 7), config).expect("valid config");
        let total = 25u64;
        let mut completed = Vec::new();
        let mut shed = Vec::new();
        let mut rejected = Vec::new();
        for id in 0..total {
            let out = server.submit(id, input(id + 1), SimTime::from_millis(id));
            if !out.admitted {
                rejected.push(id);
            }
            shed.extend(out.shed);
            completed.extend(out.completed.iter().map(|c| c.id));
        }
        completed.extend(server.flush().iter().map(|c| c.id));
        let mut all: Vec<u64> = completed
            .iter()
            .chain(&shed)
            .chain(&rejected)
            .copied()
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..total).collect();
        assert_eq!(all, expected, "conservation across completed/shed/rejected");
        assert_eq!(completed.len() as u64, server.executed_requests());
        assert!(!shed.is_empty(), "overload must actually shed");
    }

    #[test]
    fn batched_outputs_follow_per_request_submission_order() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(4, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        // Submit out-of-numeric-order ids: completion order must follow
        // submission order, not id order, and each output must be the
        // logits of *that* request's input.
        let ids = [9u64, 3, 7, 1, 8, 2, 6, 0];
        let mut completed = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let out = server.submit(id, input(100 + id), SimTime::from_millis(k as u64));
            completed.extend(out.completed);
        }
        completed.extend(server.flush());
        assert_eq!(completed.len(), ids.len());
        for (k, c) in completed.iter().enumerate() {
            assert_eq!(c.id, ids[k], "completion order = submission order");
            assert_eq!(
                c.output,
                oracle.forward(&input(100 + c.id)),
                "output belongs to the request's own input"
            );
        }
    }

    #[test]
    fn served_logits_are_bit_identical_across_thread_counts() {
        // The whole serving path — batcher, weight-cached executor, pooled
        // kernels — must produce byte-equal logits whatever the pool width.
        let g = tiny_graph();
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                let mut server = RealBatchServer::new(
                    Executor::new(&g, 7),
                    BatcherConfig::new(4, SimTime::from_millis(1000)),
                )
                .expect("valid config");
                let mut done = Vec::new();
                for id in 0..6u64 {
                    done.extend(
                        server
                            .submit(id, input(id + 1), SimTime::from_millis(id))
                            .completed,
                    );
                }
                done.extend(server.flush());
                done
            })
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 6);
        for threads in [2, 4] {
            let pooled = run(threads);
            assert_eq!(pooled.len(), sequential.len());
            for (a, b) in sequential.iter().zip(&pooled) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.output, b.output,
                    "threads={threads}: serving logits must not depend on pool width"
                );
            }
        }
    }

    #[test]
    fn missing_payload_surfaces_as_typed_fault_not_panic() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(3, SimTime::from_millis(100)),
        )
        .expect("valid config");
        assert!(server.take_faults().is_empty(), "steady state is empty");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::ZERO);
        server.drop_payload(1); // skew the books behind the batcher
        let out = server.submit(2, input(3), SimTime::ZERO);
        // The skewed request is reported; its batchmates still complete
        // with the right logits.
        let ids: Vec<u64> = out.completed.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(out.completed.iter().all(|c| c.batch_size == 2));
        assert_eq!(out.completed[0].output, oracle.forward(&input(1)));
        assert_eq!(out.completed[1].output, oracle.forward(&input(3)));
        assert_eq!(server.executed_requests(), 2);
        assert_eq!(
            server.take_faults(),
            vec![ServeFault::MissingPayload { id: 1 }]
        );
        assert!(server.take_faults().is_empty(), "faults drain once");
    }

    #[test]
    fn fully_skewed_batch_executes_nothing_and_reports_every_id() {
        let g = tiny_graph();
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(4, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::ZERO);
        server.drop_payload(0);
        server.drop_payload(1);
        let done = server.flush();
        assert!(done.is_empty());
        assert_eq!(server.executed_batches(), 0, "nothing to run");
        assert_eq!(
            server.take_faults(),
            vec![
                ServeFault::MissingPayload { id: 0 },
                ServeFault::MissingPayload { id: 1 }
            ]
        );
    }

    // --- integrity state machine ---

    use crate::integrity::{DetectorConfig, NodeIntegrity};
    use harvest_simkit::fault::FaultPlan;

    fn integrity_server<'g>(
        g: &'g harvest_models::Graph,
        plan: FaultPlan,
        config: DetectorConfig,
        batch: u32,
    ) -> RealBatchServer<'g> {
        RealBatchServer::with_integrity(
            Executor::new(g, 7),
            BatcherConfig::new(batch, SimTime::from_millis(1000)),
            NodeIntegrity::new(g, 7, plan, config),
        )
        .expect("valid config")
    }

    fn drive(server: &mut RealBatchServer<'_>, n: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for id in 0..n {
            done.extend(
                server
                    .submit(id, input(id + 1), SimTime::from_millis(id))
                    .completed,
            );
        }
        done.extend(server.flush());
        done
    }

    #[test]
    fn integrity_off_plan_none_is_bit_identical_to_plain_server() {
        let g = tiny_graph();
        let mut plain = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(4, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        let mut guarded = integrity_server(&g, FaultPlan::none(), DetectorConfig::full(1e6), 4);
        let mut a = drive(&mut plain, 8);
        let mut b = drive(&mut guarded, 8);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.output, y.output, "full detectors must not change logits");
        }
        let stats = *guarded.integrity_stats().expect("integrity on");
        assert_eq!(stats.detected, 0);
        assert_eq!(stats.clean, stats.batches);
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn transient_weight_corruption_is_detected_recovered_and_never_escapes() {
        let g = tiny_graph();
        let plan = FaultPlan::new(2024).with_weight_bit_flips(1e-3, false);
        let mut server = integrity_server(&g, plan, DetectorConfig::full(1e6), 2);
        let done = drive(&mut server, 16);
        assert_eq!(done.len(), 16, "transient faults recover, nothing fails");
        let oracle = Executor::new(&g, 7);
        for c in &done {
            // Recovery re-materializes, so emitted logits are the clean ones.
            assert_eq!(c.output, oracle.forward(&input(c.id + 1)));
        }
        let stats = *server.integrity_stats().expect("integrity on");
        assert!(stats.injected_weight_flips > 0, "rate must land flips");
        assert!(stats.detected > 0, "checksums must notice");
        assert_eq!(
            stats.detected, stats.recovered,
            "transient ⇒ retry succeeds"
        );
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.escaped, 0, "full ladder lets nothing out");
        assert!(stats.conserved(), "{stats:?}");
        assert!(!server.is_quarantined());
    }

    #[test]
    fn sticky_weight_corruption_quarantines_after_one_retry() {
        let g = tiny_graph();
        let plan = FaultPlan::new(300).with_weight_bit_flips(5e-3, true);
        let mut server = integrity_server(&g, plan, DetectorConfig::full(1e6), 2);
        let done = drive(&mut server, 6);
        let stats = *server.integrity_stats().expect("integrity on");
        assert!(server.is_quarantined(), "sticky fault must quarantine");
        assert_eq!(stats.quarantined, 1, "exactly one quarantine event");
        assert_eq!(stats.escaped, 0);
        assert!(stats.conserved(), "{stats:?}");
        let failed = server.take_failed();
        assert!(!failed.is_empty(), "quarantined batch requests surface");
        assert_eq!(
            done.len() + failed.len(),
            6,
            "every request completes or fails, none vanish"
        );
    }

    #[test]
    fn corruption_escapes_when_detectors_are_off() {
        let g = tiny_graph();
        let plan = FaultPlan::new(2024).with_weight_bit_flips(1e-3, false);
        let mut server = integrity_server(&g, plan, DetectorConfig::off(), 2);
        let done = drive(&mut server, 16);
        assert_eq!(done.len(), 16, "nothing is detected, everything emits");
        let stats = *server.integrity_stats().expect("integrity on");
        assert_eq!(stats.detected, 0);
        assert!(
            stats.escaped > 0,
            "unguarded weight flips must ship wrong logits: {stats:?}"
        );
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn activation_corruption_never_escapes_under_full_ladder() {
        let g = tiny_graph();
        let plan = FaultPlan::new(77).with_activation_bit_flips(2e-3, "blocks.0.mlp");
        let mut server = integrity_server(&g, plan, DetectorConfig::full(1e6), 2);
        drive(&mut server, 16);
        let stats = *server.integrity_stats().expect("integrity on");
        assert!(stats.injected_activation_flips > 0, "flips must land");
        assert!(stats.detected > 0, "cross-check must notice");
        assert_eq!(stats.escaped, 0, "{stats:?}");
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn cross_check_alone_recovers_weight_corruption_on_any_generation() {
        // Checksums and sentinels off: only the oracle cross-check stands
        // between the flips and the client — on the booted generation 0,
        // and on swapped-in generations. Two swaps, so that a rollback of
        // the fresh second one still leaves a swapped generation serving.
        let g = tiny_graph();
        let config = DetectorConfig {
            weight_checksums: false,
            guard: None,
            cross_check_period: 1,
        };
        for swaps in [0u64, 2] {
            let plan = FaultPlan::new(2024).with_weight_bit_flips(1e-3, false);
            let mut server = integrity_server(&g, plan, config, 2);
            for n in 1..=swaps {
                let number = server
                    .swap_artifact(&artifact_bytes(&g, 98 + n), None)
                    .expect("clean artifact loads");
                assert_eq!(number, n);
            }
            let done = drive(&mut server, 16);
            assert_eq!(done.len(), 16, "swaps={swaps}: nothing fails");
            assert!(
                done.iter().all(|c| (c.generation == 0) == (swaps == 0)),
                "swaps={swaps}: served on the wrong generation"
            );
            let stats = *server.integrity_stats().expect("integrity on");
            assert!(stats.injected_weight_flips > 0, "rate must land flips");
            assert!(stats.detected > 0, "swaps={swaps}: cross-check must notice");
            assert_eq!(stats.detected, stats.recovered, "swaps={swaps}: {stats:?}");
            assert_eq!(stats.quarantined, 0);
            assert_eq!(stats.escaped, 0, "swaps={swaps}: {stats:?}");
            assert!(stats.conserved(), "{stats:?}");
        }
    }

    // --- hot generation swaps ---

    use harvest_engine::{encode_artifact, MaterializedWeights, WeightStore};

    fn artifact_bytes(g: &harvest_models::Graph, seed: u64) -> Vec<u8> {
        encode_artifact(&MaterializedWeights::new(g, &WeightStore::new(seed), false))
    }

    fn poisoned_bytes(g: &harvest_models::Graph, seed: u64) -> Vec<u8> {
        let mut w = MaterializedWeights::new(g, &WeightStore::new(seed), false);
        // Producer-side poison: exponent bits forced high *before* the
        // checksums are taken, so the artifact is self-consistent and sails
        // through the load gate — only an activation sentinel downstream
        // can catch it.
        w.for_each_buffer_mut(|_, buf| {
            buf[0] = f32::from_bits(buf[0].to_bits() | 0x7800_0000);
        });
        encode_artifact(&w)
    }

    fn swapped_oracle<'g>(g: &'g harvest_models::Graph, seed: u64) -> Executor<'g> {
        let mut oracle = Executor::new(g, 7);
        oracle.install_weights(Arc::new(MaterializedWeights::new(
            g,
            &WeightStore::new(seed),
            false,
        )));
        oracle
    }

    #[test]
    fn clean_swap_switches_generation_between_batches() {
        let g = tiny_graph();
        let before = Executor::new(&g, 7);
        let after = swapped_oracle(&g, 99);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(2, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        let first = server.submit(1, input(2), SimTime::ZERO).completed;
        assert_eq!(first.len(), 2);
        for c in &first {
            assert_eq!(c.generation, 0);
            assert_eq!(c.output, before.forward(&input(c.id + 1)));
        }
        let n = server
            .swap_artifact(&artifact_bytes(&g, 99), None)
            .expect("clean artifact loads");
        assert_eq!(n, 1);
        assert_eq!(server.generation(), 1);
        assert!(server.weights_cell().guard().is_some(), "fresh: guarded");
        server.submit(2, input(3), SimTime::ZERO);
        let second = server.flush();
        assert_eq!(second.len(), 1);
        assert_eq!(
            second[0].generation, 1,
            "next batch runs the new generation"
        );
        assert_eq!(second[0].output, after.forward(&input(3)));
        let cell = server.weights_cell();
        assert!(cell.guard().is_none(), "its clean first batch proved it");
        assert_eq!(
            (cell.swaps(), cell.rollbacks(), cell.rejected_loads()),
            (1, 0, 0)
        );
        assert_eq!(
            cell.previous().map(|p| p.number()),
            Some(0),
            "prior generation retained for rollback"
        );
    }

    #[test]
    fn rejected_artifacts_leave_the_serving_generation_untouched() {
        let g = tiny_graph();
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(2, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        let good = artifact_bytes(&g, 42);

        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        assert!(
            server.swap_artifact(&corrupt, None).is_err(),
            "bit flip rejects"
        );
        assert!(
            server.swap_artifact(&good[..good.len() / 3], None).is_err(),
            "truncation rejects"
        );
        assert!(
            matches!(
                server.swap_artifact(&good, Some(2)),
                Err(ArtifactError::CrashedMidLoad { applied: 2, .. })
            ),
            "mid-load crash rejects"
        );

        assert_eq!(server.generation(), 0, "serving generation untouched");
        let cell = server.weights_cell();
        assert_eq!((cell.swaps(), cell.rejected_loads()), (0, 3));
        // And it still serves the boot weights.
        server.submit(0, input(1), SimTime::ZERO);
        let done = server.flush();
        assert_eq!(done[0].generation, 0);
        assert_eq!(done[0].output, Executor::new(&g, 7).forward(&input(1)));
    }

    #[test]
    fn poisoned_artifact_rolls_back_before_serving_anyone() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(2, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        // The poisoned artifact is internally consistent: the load gate
        // passes and the swap publishes.
        let n = server
            .swap_artifact(&poisoned_bytes(&g, 99), None)
            .expect("load gate passes");
        assert_eq!(n, 1);
        assert_eq!(server.generation(), 1);
        // First batch under the swap sentinel: violation → rollback → the
        // batch re-serves on generation 0. Nobody gets generation-1 logits.
        let mut done = Vec::new();
        done.extend(server.submit(0, input(1), SimTime::ZERO).completed);
        done.extend(server.submit(1, input(2), SimTime::ZERO).completed);
        done.extend(server.flush());
        assert_eq!(done.len(), 2);
        for c in &done {
            assert_eq!(c.generation, 0, "bad generation must serve nothing");
            assert_eq!(c.output, oracle.forward(&input(c.id + 1)));
        }
        assert_eq!(server.generation(), 0);
        let cell = server.weights_cell();
        assert_eq!((cell.swaps(), cell.rollbacks()), (1, 1));
        assert_eq!(cell.quarantined().len(), 1);
        assert_eq!(cell.quarantined()[0].0, 1, "generation 1 quarantined");
        // A later good swap gets a fresh number, never reusing 1.
        assert_eq!(
            server
                .swap_artifact(&artifact_bytes(&g, 4), None)
                .expect("clean"),
            2
        );
    }

    #[test]
    fn integrity_ladder_serves_clean_swapped_generations() {
        let g = tiny_graph();
        let after = swapped_oracle(&g, 99);
        let mut server = integrity_server(&g, FaultPlan::none(), DetectorConfig::full(1e6), 2);
        drive(&mut server, 4);
        assert_eq!(
            server
                .swap_artifact(&artifact_bytes(&g, 99), None)
                .expect("clean artifact loads"),
            1
        );
        let mut done = Vec::new();
        for id in 10..14u64 {
            done.extend(
                server
                    .submit(id, input(id + 1), SimTime::from_millis(id))
                    .completed,
            );
        }
        done.extend(server.flush());
        assert_eq!(done.len(), 4);
        for c in &done {
            assert_eq!(c.generation, 1);
            assert_eq!(
                c.output,
                after.forward(&input(c.id + 1)),
                "swapped generation serves its own logits"
            );
        }
        let stats = *server.integrity_stats().expect("integrity on");
        assert_eq!(
            stats.detected, 0,
            "a legitimate swap must not read as corruption: {stats:?}"
        );
        assert_eq!(stats.clean, stats.batches);
        assert_eq!(stats.escaped, 0);
        assert!(stats.conserved(), "{stats:?}");

        // Its clean batches proved generation 1, so in-memory corruption
        // found later is rematerialized from the cell's pristine copy of
        // generation 1, not rolled back to generation 0.
        let flips = FaultPlan::new(2024).with_weight_bit_flips(1e-3, false);
        assert!(server.exec.inject_weight_flips(&flips, 0) > 0);
        let healed = drive(&mut server, 2);
        assert_eq!(healed.len(), 2);
        for c in &healed {
            assert_eq!(c.generation, 1, "a proven generation is not rolled back");
            assert_eq!(c.output, after.forward(&input(c.id + 1)));
        }
        let stats = *server.integrity_stats().expect("integrity on");
        assert_eq!((stats.detected, stats.recovered), (1, 1), "{stats:?}");
        assert_eq!(server.weights_cell().rollbacks(), 0);
    }

    #[test]
    fn integrity_ladder_rolls_back_a_poisoned_generation() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = integrity_server(&g, FaultPlan::none(), DetectorConfig::full(1e6), 2);
        assert_eq!(
            server
                .swap_artifact(&poisoned_bytes(&g, 99), None)
                .expect("load gate passes"),
            1
        );
        let done = drive(&mut server, 4);
        assert_eq!(done.len(), 4, "rollback recovers the batch, nothing fails");
        for c in &done {
            assert_eq!(c.generation, 0, "bad generation must serve nothing");
            assert_eq!(c.output, oracle.forward(&input(c.id + 1)));
        }
        let stats = *server.integrity_stats().expect("integrity on");
        assert_eq!(stats.detected, 1, "sentinel fires once, on the first batch");
        assert_eq!(stats.recovered, 1, "retry on the rolled-back generation");
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.escaped, 0);
        assert!(stats.conserved(), "{stats:?}");
        let cell = server.weights_cell();
        assert_eq!((cell.swaps(), cell.rollbacks()), (1, 1));
        assert_eq!(cell.quarantined()[0].0, 1, "generation 1 quarantined");
        assert!(!server.is_quarantined(), "the node itself stays healthy");
    }
}
