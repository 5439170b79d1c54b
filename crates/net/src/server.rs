//! The wire server: hardened HTTP/1.1 serving over the real batch engine.
//!
//! Architecture: `accept_threads` accept loops share one
//! `std::net::TcpListener`, each handling its accepted connection to
//! completion (parse → decode → preprocess → submit; the decode produces
//! only the source rows the preprocessing resize samples, so a 512² body
//! bound for a 16² model is inverse-transformed and colour-converted in 32
//! of its 512 rows). Inference runs on a
//! **data-parallel engine worker pool**: a coordinator thread owns the
//! model graph, the dynamic batcher, and the weight-generation cell, and
//! `engine_workers` replica executors each serve whole batches. Dispatch is
//! work-conserving (the rule and its state machine are in `pool.rs`): an
//! idle worker takes the oldest queued requests the moment they arrive, so
//! a batch forms only while every worker is busy, and the coordinator
//! sleeps in a blocking receive between submissions and completions.
//! Completions merge back in dispatch order, and a request's logits do not
//! depend on its batchmates or its worker, so classes, completion order,
//! and wire fingerprints are bit-identical at every pool width.
//! Connections talk to the coordinator over an mpsc channel and block on a
//! per-request reply channel, so batches form across connections while the
//! pool overlaps their execution. While the admission breaker is half-open,
//! the coordinator answers admitted probes itself on one executor over the
//! cheaper degraded model: one image at a time, never swapped, so every
//! degraded answer is a batch of one on generation 0.
//!
//! Hardening contract:
//!
//! * every connection runs under read/write deadlines (slowloris defense)
//!   and the parser's byte caps (oversize defense) — a hostile peer can
//!   cost at most one bounded buffer and one deadline tick;
//! * every fully parsed request gets **exactly one** response: a
//!   classification, a typed error, or an explicit `503 Retry-After`.
//!   Every response leaves through one function, which picks the status
//!   line and headers and counts it in exactly one ledger class (the
//!   statuses each class holds are listed on [`WireSnapshot`]);
//!   [`WireSnapshot::conserved`] checks the ledger:
//!   `responded_ok + responded_error + rejected + shed == accepted`;
//! * graceful drain ([`WireServer::begin_drain`] /
//!   [`WireServer::shutdown`]): in-flight batches flush to completion, new
//!   work is answered `503` with `Retry-After`, and every spawned thread is
//!   joined — the [`DrainReport`] counts them so leaks are a test failure,
//!   not a mystery;
//! * live operations: `POST /admin/swap` stages a weight artifact through
//!   the engine's integrity-gated load (one staging slot — a concurrent
//!   swap gets `409`; a draining or breaker-open engine gets `503`), and
//!   `GET /metrics` exposes a deterministic text snapshot of the wire
//!   ledger, queue depths, breaker/ladder state, and the weight-generation
//!   cell (current/previous fingerprints, swap/rollback/rejected-load
//!   counts).

use crate::http::{parse_request, write_response, HttpLimits, Method, Parsed, Request};
use crate::pool::{Batch, Effect, Pool, SwapOutcome, WireOutcome, WorkerDone};
use harvest_models::{vit, VitConfig};
use harvest_preproc::ingest;
use harvest_serving::{
    BatcherConfig, BreakerConfig, BreakerState, CircuitBreaker, ServingLimits, ShedPolicy,
};
use harvest_simkit::SimTime;
use harvest_tensor::Tensor;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harvest_engine::{Executor, MaterializedWeights};

/// Everything the wire needs to come up.
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Address to bind; port 0 picks a free one.
    pub addr: String,
    /// Accept loops ("thread per core" on the target edge boxes).
    pub accept_threads: usize,
    /// Largest batch one worker is handed: when a worker comes free it
    /// takes the oldest `min(queued, preferred_batch)` requests.
    pub preferred_batch: u32,
    /// No effect on the pool path: nothing is ever held while a worker is
    /// idle, so there is no partial batch for a delay to release. The field
    /// and its validation stay because `benchmark/`, `loadgen` and the tests
    /// construct it; the next `benchmark`-archetype PR removes it.
    pub max_queue_delay_ms: u64,
    /// Shared serving bounds (body cap, queue bound, in-flight bound) —
    /// the single source of truth the HTTP layer and batcher both obey.
    pub limits: ServingLimits,
    /// Shed the oldest queued request instead of rejecting new ones.
    pub drop_oldest: bool,
    /// Per-connection read deadline, milliseconds.
    pub read_timeout_ms: u64,
    /// Per-connection write deadline, milliseconds.
    pub write_timeout_ms: u64,
    /// Model input resolution (decoded images are resized to this).
    pub out_res: usize,
    /// The model the engine serves.
    pub model: VitConfig,
    /// Weight seed for the served model.
    pub model_seed: u64,
    /// Admission breaker in front of the engine: engine faults feed its
    /// error EWMA, and an open breaker turns `/classify` away with
    /// `503 Retry-After` instead of queueing doomed work.
    pub breaker: BreakerConfig,
    /// Degradation ladder rung: while the breaker is half-open, requests
    /// are served by this cheaper model instead of probing the full one.
    /// Must share `img` and `classes` with `model`. `None` probes the full
    /// model directly.
    pub degraded_model: Option<VitConfig>,
    /// Width of the data-parallel engine worker pool. Each worker owns a
    /// replica executor over the shared weight generations; a batch goes to
    /// the lowest-numbered idle worker and completions merge back in
    /// dispatch order, so serving is bit-identical at every width. The
    /// in-flight and queue bounds in `limits` stay pool-wide. Must be ≥ 1.
    pub engine_workers: usize,
}

impl Default for WireConfig {
    /// A small-but-real deployment: the tiny ViT the serving tests use,
    /// four accept loops, batches of up to 4, and deadlines tuned for
    /// loopback tests.
    fn default() -> Self {
        WireConfig {
            addr: "127.0.0.1:0".to_string(),
            accept_threads: 4,
            preferred_batch: 4,
            max_queue_delay_ms: 5,
            limits: ServingLimits::default(),
            drop_oldest: false,
            read_timeout_ms: 250,
            write_timeout_ms: 1000,
            out_res: 16,
            model: VitConfig {
                dim: 32,
                depth: 1,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            },
            model_seed: 7,
            breaker: BreakerConfig::default(),
            degraded_model: Some(VitConfig {
                dim: 16,
                depth: 1,
                heads: 1,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            }),
            engine_workers: 2,
        }
    }
}

/// The live outcome counters behind [`WireSnapshot`], one atomic per field
/// of the same name, bumped by every connection.
#[derive(Debug, Default)]
pub(crate) struct WireStats {
    connections: AtomicU64,
    accepted: AtomicU64,
    responded_ok: AtomicU64,
    responded_error: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    bad_requests: AtomicU64,
    incomplete: AtomicU64,
    timeouts: AtomicU64,
    idle_closes: AtomicU64,
    write_failures: AtomicU64,
    breaker_open: AtomicU64,
    degraded_ok: AtomicU64,
}

/// A point-in-time copy of the wire's outcome counters.
///
/// The conservation classes: `accepted` counts fully parsed requests, and
/// each accepted request lands in exactly one of `responded_ok`,
/// `responded_error`, `rejected`, `shed`. Connection-level failures that
/// never produced a parsed request (`bad_requests`, `timeouts`,
/// `incomplete`, `idle_closes`) sit outside the ledger — nothing was
/// promised for them beyond the error/close they got. Every response is
/// counted by the one reply path, which bumps exactly one of the six
/// answering classes; each field below lists the statuses it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Connections that delivered at least one byte.
    pub connections: u64,
    /// Fully parsed requests (the conservation base).
    pub accepted: u64,
    /// `200` to an accepted request: `/healthz`, `/classify` (full model or
    /// degraded rung), `/admin/swap` that swapped, `/metrics`.
    pub responded_ok: u64,
    /// Typed errors to an accepted request: `404` unknown path, `405` known
    /// path with the wrong method, `409` a swap already staging, `422` an
    /// undecodable image or a refused artifact, `500` an engine fault, and
    /// the `/metrics` `503` when the engine does not answer (no
    /// `Retry-After`: retrying will not help a stopped engine).
    pub responded_error: u64,
    /// `503` with `Retry-After`: draining (`/classify` and `/admin/swap`
    /// at the door, or refused by an engine already draining), the
    /// in-flight cap, a full queue, or an open breaker (`/classify`,
    /// `/admin/swap`).
    pub rejected: u64,
    /// `503` with `Retry-After` for a request DropOldest shed from the
    /// queue.
    pub shed: u64,
    /// Bytes that never parsed into a request, answered with the parser's
    /// typed status (`400`, `413`, `414`, `431`, `501`) or `431` when the
    /// read buffer hits its cap; outside the ledger.
    pub bad_requests: u64,
    /// Connections that died mid-request (reset/EOF with bytes pending).
    pub incomplete: u64,
    /// Read deadlines that fired with a partial request pending, answered
    /// `408`; outside the ledger.
    pub timeouts: u64,
    /// Clean closes with no partial request pending.
    pub idle_closes: u64,
    /// Responses the peer was gone for (diagnostic; the outcome above
    /// still counts — the server kept its side of the ledger).
    pub write_failures: u64,
    /// Diagnostic overlap counter: 503s issued because the admission
    /// breaker was open (every one is also counted in `rejected`).
    pub breaker_open: u64,
    /// Diagnostic overlap counter: 2xx responses served by the degraded
    /// ladder rung (every one is also counted in `responded_ok`).
    pub degraded_ok: u64,
}

impl WireSnapshot {
    /// Does the outcome ledger balance? Every accepted request must be in
    /// exactly one outcome class — none lost, none double-counted.
    pub fn conserved(&self) -> bool {
        self.responded_ok + self.responded_error + self.rejected + self.shed == self.accepted
    }
}

impl WireStats {
    fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            connections: self.connections.load(Ordering::SeqCst),
            accepted: self.accepted.load(Ordering::SeqCst),
            responded_ok: self.responded_ok.load(Ordering::SeqCst),
            responded_error: self.responded_error.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            bad_requests: self.bad_requests.load(Ordering::SeqCst),
            incomplete: self.incomplete.load(Ordering::SeqCst),
            timeouts: self.timeouts.load(Ordering::SeqCst),
            idle_closes: self.idle_closes.load(Ordering::SeqCst),
            write_failures: self.write_failures.load(Ordering::SeqCst),
            breaker_open: self.breaker_open.load(Ordering::SeqCst),
            degraded_ok: self.degraded_ok.load(Ordering::SeqCst),
        }
    }
}

/// What shutdown left behind.
#[derive(Debug)]
pub struct DrainReport {
    /// Final counters.
    pub stats: WireSnapshot,
    /// Threads joined on the way down (accept loops + engine). A value
    /// short of `accept_threads + 1` means something leaked.
    pub threads_joined: usize,
}

enum EngineMsg {
    Submit {
        id: u64,
        input: Tensor,
        reply: mpsc::Sender<WireOutcome>,
    },
    /// Force the admission breaker open (how the wire tests stage an
    /// outage).
    #[cfg(test)]
    TripBreaker,
    /// Flush every queued request and refuse new ones.
    Drain,
    /// Stage a weight artifact: verify, publish, install — or reject with
    /// a typed error and keep serving the current generation.
    Swap {
        body: Vec<u8>,
        reply: mpsc::Sender<SwapOutcome>,
    },
    /// Snapshot the engine-side metrics: the counter section (queues,
    /// breaker, generations) and the timing section.
    Metrics {
        reply: mpsc::Sender<(String, String)>,
    },
    /// A pool worker finished a dispatched batch (internal: workers share
    /// the coordinator's channel so one blocking receive drives both
    /// external traffic and completion merging).
    WorkerDone(WorkerDone),
    /// Shut the engine down once the drain has settled (sent by
    /// [`WireServer::shutdown`] after the accept loops are joined).
    Stop,
}

/// What the coordinator sends one pool worker.
enum WorkerMsg {
    Run(Batch),
    /// Install a newly published (or rolled-back-to) weight generation.
    Install(Arc<MaterializedWeights>),
    Stop,
}

/// State shared by the accept loops and the shutdown path.
#[derive(Default)]
struct Shared {
    stats: WireStats,
    draining: AtomicBool,
    stopping: AtomicBool,
    next_id: AtomicU64,
    in_flight: AtomicU64,
    /// One swap may stage at a time: held from `/admin/swap` admission
    /// until the engine's verdict lands; a concurrent swap gets `409`.
    swap_staging: AtomicBool,
    /// Connection-side time from handing a request to the engine to its
    /// classification coming back, summed over the requests a pool worker
    /// served (statistics for the `/metrics` timing section).
    round_trip_ns: AtomicU64,
    round_trip_requests: AtomicU64,
}

/// A running wire front-end. Dropping it without [`WireServer::shutdown`]
/// leaks the serving threads; tests should always drain.
pub struct WireServer {
    addr: SocketAddr,
    config: WireConfig,
    shared: Arc<Shared>,
    engine_tx: Mutex<Option<mpsc::Sender<EngineMsg>>>,
    accept_handles: Vec<JoinHandle<()>>,
    engine_handle: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Bind, spawn the engine and the accept loops, and start serving.
    pub fn start(config: WireConfig) -> io::Result<WireServer> {
        let batcher = batcher_config(&config)?;
        if config.accept_threads == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "accept_threads must be at least 1",
            ));
        }
        // The pool check also documents the contract: queue and in-flight
        // bounds are pool-wide, so widening the pool never widens them.
        config
            .limits
            .check_pool(config.engine_workers)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::default());

        config
            .breaker
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if let Some(d) = &config.degraded_model {
            if d.img != config.model.img || d.classes != config.model.classes {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "degraded_model must share img and classes with model",
                ));
            }
        }

        let (tx, rx) = mpsc::channel::<EngineMsg>();
        let engine_handle = {
            let config = config.clone();
            // Pool workers send completions back over the same channel the
            // accept loops use, so the coordinator has one blocking receive.
            let pool_tx = tx.clone();
            std::thread::Builder::new()
                .name("wire-engine".to_string())
                .spawn(move || engine_loop(rx, pool_tx, config, batcher))?
        };

        let mut accept_handles = Vec::with_capacity(config.accept_threads);
        for worker in 0..config.accept_threads {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let config = config.clone();
            accept_handles.push(
                std::thread::Builder::new()
                    .name(format!("wire-accept-{worker}"))
                    .spawn(move || accept_loop(listener, addr, shared, tx, config))?,
            );
        }

        Ok(WireServer {
            addr,
            config,
            shared,
            engine_tx: Mutex::new(Some(tx)),
            accept_handles,
            engine_handle: Some(engine_handle),
        })
    }

    /// Where the server is listening.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &WireConfig {
        &self.config
    }

    /// Enter drain mode: flush the queued work, answer everything new with
    /// `503 Retry-After`. Idempotent; the listener stays up so clients get
    /// explicit refusals instead of connection errors.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            if let Some(tx) = self.engine_tx.lock().expect("engine tx lock").as_ref() {
                let _ = tx.send(EngineMsg::Drain);
            }
        }
    }

    /// Drain, stop accepting, and join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        self.begin_drain();
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wake one accept loop; each exiting loop relays the wake-up so a
        // single nudge unwinds all of them regardless of which thread wins
        // each accept race.
        let _ = TcpStream::connect(self.addr);
        let mut joined = 0;
        for handle in self.accept_handles.drain(..) {
            if handle.join().is_ok() {
                joined += 1;
            }
        }
        // The accept loops are joined, so no submission is in flight. The
        // pool workers hold clones of the engine sender (the channel never
        // disconnects on its own), so shutdown is an explicit message: the
        // coordinator finishes the drain, stops its workers, and exits.
        if let Some(tx) = self.engine_tx.lock().expect("engine tx lock").take() {
            let _ = tx.send(EngineMsg::Stop);
        }
        if let Some(handle) = self.engine_handle.take() {
            if handle.join().is_ok() {
                joined += 1;
            }
        }
        DrainReport {
            stats: self.shared.stats.snapshot(),
            threads_joined: joined,
        }
    }
}

/// The pool's batcher: the queue bound and the shed policy of `limits`,
/// DropOldest if `drop_oldest` asks for it, checked against the limits it
/// came from.
fn batcher_config(config: &WireConfig) -> io::Result<BatcherConfig> {
    let mut batcher = config
        .limits
        .batcher_config(
            config.preferred_batch,
            SimTime::from_millis(config.max_queue_delay_ms),
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    if config.drop_oldest {
        batcher.shed = ShedPolicy::DropOldest;
    }
    // The derived config must still agree with the limits it came from.
    config
        .limits
        .check_batcher(&batcher)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    Ok(batcher)
}

/// A request the engine has admitted but not yet resolved.
struct PendingReply {
    tx: mpsc::Sender<WireOutcome>,
    submitted: SimTime,
}

/// The channel ends and the breaker the engine thread resolves requests
/// through: everything [`Pool`] and the degraded rung decide is performed
/// here, exactly once per id.
struct Shell<'s> {
    worker_txs: &'s [mpsc::Sender<WorkerMsg>],
    waiting: HashMap<u64, PendingReply>,
    breaker: CircuitBreaker,
    swap_reply: Option<mpsc::Sender<SwapOutcome>>,
}

impl Shell<'_> {
    /// Resolve one waiting request; completions close the breaker, faults
    /// trip it.
    fn answer(&mut self, id: u64, outcome: WireOutcome, now: SimTime) {
        let Some(p) = self.waiting.remove(&id) else {
            return;
        };
        match outcome {
            WireOutcome::Done { .. } => self
                .breaker
                .record_success(now, now.saturating_sub(p.submitted)),
            WireOutcome::Failed => self.breaker.record_failure(now),
            _ => {}
        }
        let _ = p.tx.send(outcome);
    }

    /// Perform what the pool decided, in its order: an install reaches a
    /// worker before the batch that must run on it.
    fn perform(&mut self, effects: impl Iterator<Item = Effect>, now: SimTime) {
        for effect in effects {
            match effect {
                Effect::Run { worker, batch } => {
                    let _ = self.worker_txs[worker].send(WorkerMsg::Run(batch));
                }
                Effect::Install(weights) => {
                    for wtx in self.worker_txs {
                        let _ = wtx.send(WorkerMsg::Install(Arc::clone(&weights)));
                    }
                }
                Effect::Answer { id, outcome } => self.answer(id, outcome, now),
                Effect::Swap(outcome) => {
                    if let Some(reply) = self.swap_reply.take() {
                        let _ = reply.send(outcome);
                    }
                }
            }
        }
    }
}

/// One pool worker: a replica executor serving whole batches. Kernels run
/// sequentially inside the worker (`with_threads(1)`) — parallelism comes
/// from the pool itself — and the executor's persistent scratch plus the
/// reusable logit sink make the steady-state batch allocation-free. The
/// `harvest-threads` determinism contract keeps per-request logits
/// bit-identical to every other worker and every pool width.
fn worker_loop(
    worker: usize,
    graph: &harvest_models::Graph,
    seed: u64,
    rx: mpsc::Receiver<WorkerMsg>,
    done: mpsc::Sender<EngineMsg>,
) {
    harvest_threads::with_threads(1, || {
        let mut exec = Executor::new(graph, seed);
        let mut sink: Vec<f32> = Vec::new();
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Run(Batch {
                    seq,
                    ids,
                    inputs,
                    guard,
                }) => {
                    let started = Instant::now();
                    let run = exec.run(&inputs, guard.as_ref(), None, &mut sink);
                    let violation = run.violation.is_some();
                    let classes = sink
                        .chunks_exact(run.per_image.max(1))
                        .map(argmax)
                        .collect();
                    let out = WorkerDone {
                        seq,
                        worker,
                        ids,
                        classes,
                        violation,
                        inputs: if violation { inputs } else { Vec::new() },
                        scratch: exec.scratch_stats(),
                        busy_ns: started.elapsed().as_nanos() as u64,
                    };
                    if done.send(EngineMsg::WorkerDone(out)).is_err() {
                        break;
                    }
                }
                WorkerMsg::Install(w) => exec.install_weights(w),
                WorkerMsg::Stop => break,
            }
        }
    });
}

/// The engine thread: the channel shell around [`Pool`]. It owns the graph,
/// the breaker ladder, the degraded rung and `engine_workers` scoped
/// replica executors, blocks on its one channel — an idle server makes no
/// wake-ups — turns each message into one `Pool` event, and performs the
/// effects that come back, which is how it guarantees **exactly one** reply
/// per submitted id (completion, shed, rejection, or typed failure).
///
/// Admission runs through a [`CircuitBreaker`] whose ladder is: **closed**
/// → the full model serves; **half-open** → admitted probes run on the
/// degraded model (cheap capacity while confidence rebuilds), non-admitted
/// ones get `503`; **open** → everything gets `503 Retry-After`.
/// Completions feed the breaker's success EWMA, engine faults feed its
/// error EWMA.
///
/// Swap semantics under the pool: a staged artifact resolves only at the
/// pool-wide batch boundary (no batch in flight on any worker), and the
/// generation's lifecycle is the weight cell's (`WeightsCell::load`,
/// `guard`, `settle`): the fresh generation's first batch runs solo under
/// the cell's sentinel, and a violation rolls back and quarantines across
/// all workers before anyone is answered. Every completion is tagged with
/// the generation that actually served it.
fn engine_loop(
    rx: mpsc::Receiver<EngineMsg>,
    pool_tx: mpsc::Sender<EngineMsg>,
    config: WireConfig,
    batcher_config: BatcherConfig,
) {
    let graph = vit("wire-served", &config.model);
    let seed = config.model_seed;
    let width = config.engine_workers.max(1);
    let degraded_graph = config
        .degraded_model
        .as_ref()
        .map(|m| vit("wire-degraded", m));
    // The degraded rung: one executor over the cheaper graph, run inline on
    // the coordinator. It serves one probe at a time and nothing swaps it,
    // so every answer is a batch of one on generation 0.
    let degraded = degraded_graph
        .as_ref()
        .map(|g| Executor::new(g, seed ^ 0x0dd));
    let mut degraded_served = 0u64;

    std::thread::scope(|scope| {
        let mut worker_txs: Vec<mpsc::Sender<WorkerMsg>> = Vec::with_capacity(width);
        for w in 0..width {
            let (wtx, wrx) = mpsc::channel::<WorkerMsg>();
            worker_txs.push(wtx);
            let done = pool_tx.clone();
            let graph = &graph;
            std::thread::Builder::new()
                .name(format!("wire-exec-{w}"))
                .spawn_scoped(scope, move || worker_loop(w, graph, seed, wrx, done))
                .expect("spawn pool worker");
        }
        // Workers hold their own clones; dropping this one means the
        // channel's liveness tracks the accept loops and the pool only.
        drop(pool_tx);

        let mut pool = Pool::new(&graph, seed, batcher_config, width);
        let mut shell = Shell {
            worker_txs: &worker_txs,
            waiting: HashMap::new(),
            breaker: CircuitBreaker::new(config.breaker),
            swap_reply: None,
        };
        let start = Instant::now();
        let mut wakeups = 0u64;
        let mut stop_requested = false;

        while !(stop_requested && pool.quiescent()) {
            let Ok(msg) = rx.recv() else {
                break;
            };
            wakeups += 1;
            let t = SimTime::from_nanos(start.elapsed().as_nanos() as u64);
            match msg {
                EngineMsg::Submit { id, input, reply } => {
                    // The ladder: closed → full model; half-open → degraded
                    // probes; open → explicit refusal. A draining pool
                    // refuses by itself, without spending a probe.
                    let rung = if pool.draining() {
                        None
                    } else {
                        match shell.breaker.state(t) {
                            BreakerState::Closed => None,
                            BreakerState::HalfOpen if shell.breaker.allow(t) => degraded.as_ref(),
                            BreakerState::HalfOpen | BreakerState::Open => {
                                let _ = reply.send(WireOutcome::BreakerOpen);
                                continue;
                            }
                        }
                    };
                    let pending = PendingReply {
                        tx: reply,
                        submitted: t,
                    };
                    shell.waiting.insert(id, pending);
                    match rung {
                        Some(exec) => {
                            let class = argmax(exec.forward(&input).data());
                            degraded_served += 1;
                            let done = WireOutcome::Done {
                                class,
                                batch: 1,
                                degraded: true,
                                generation: 0,
                            };
                            shell.answer(id, done, t);
                        }
                        None => shell.perform(pool.on_submit(id, input, t), t),
                    }
                }
                EngineMsg::WorkerDone(d) => shell.perform(pool.on_done(d, t), t),
                #[cfg(test)]
                EngineMsg::TripBreaker => shell.breaker.force_open(t),
                EngineMsg::Swap { body, reply } => {
                    if !pool.draining() && matches!(shell.breaker.state(t), BreakerState::Open) {
                        let _ = reply.send(SwapOutcome::BreakerOpen);
                        continue;
                    }
                    // Staged; the pool resolves it at the pool-wide batch
                    // boundary and the reply goes out then.
                    shell.swap_reply = Some(reply);
                    shell.perform(pool.on_swap(body), t);
                }
                EngineMsg::Metrics { reply } => {
                    let served = degraded.as_ref().map(|_| degraded_served);
                    // Ladder position doubles as the breaker state: 0 =
                    // closed (full model), 1 = half-open (degraded rung),
                    // 2 = open (refusing).
                    let ladder = match shell.breaker.state(t) {
                        BreakerState::Closed => 0,
                        BreakerState::HalfOpen => 1,
                        BreakerState::Open => 2,
                    };
                    let _ =
                        reply.send((pool.metrics_text(served, ladder), pool.timing_text(wakeups)));
                }
                EngineMsg::Drain => pool.on_drain(),
                EngineMsg::Stop => {
                    pool.on_drain();
                    stop_requested = true;
                }
            }
            if pool.draining() && pool.quiescent() {
                // The drain answered everything the pool held; anything
                // still waiting hit bookkeeping skew — fail it explicitly
                // rather than hang its connection.
                for (_, p) in shell.waiting.drain() {
                    let _ = p.tx.send(WireOutcome::Failed);
                }
            }
        }

        // Stop the pool; the scope joins the workers before the engine
        // thread returns, so `DrainReport::threads_joined` stays
        // `accept_threads + 1`.
        for wtx in &worker_txs {
            let _ = wtx.send(WorkerMsg::Stop);
        }
    });
}

/// First maximum wins, so ties are deterministic.
fn argmax(data: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    best
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    tx: mpsc::Sender<EngineMsg>,
    config: WireConfig,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            // Relay the shutdown wake-up to the next blocked loop, then
            // exit. The final relay lands in the backlog and dies with the
            // listener.
            let _ = TcpStream::connect(addr);
            break;
        }
        handle_connection(stream, &shared, &tx, &config);
    }
}

/// Serve one connection, then close it *politely*: shut down the write
/// half and drain whatever the peer is still sending before dropping the
/// socket. Without the drain, closing while unread request bytes are in
/// flight raises a TCP reset that can destroy the error response sitting
/// in the peer's receive buffer — turning a deterministic "you sent
/// garbage, here is a 400" into a racy connection error.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    tx: &mpsc::Sender<EngineMsg>,
    config: &WireConfig,
) {
    serve_connection(&stream, shared, tx, config);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// The ledger class of one response: the four outcomes of an accepted
/// request, and the two kinds of bytes that never became one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Ok,
    Error,
    Rejected,
    Shed,
    BadRequest,
    Timeout,
}

/// The reason phrase of every status the server sends (the parser's typed
/// errors pick theirs in [`crate::http::ParseError::status`]; a test holds
/// this table to it).
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => unreachable!("no reason phrase for {status}"),
    }
}

/// One connection's reply path: where responses go, the buffer they are
/// serialized into, the ledger that counts them, the engine behind them,
/// and whether the request being answered keeps the connection open.
struct Conn<'a, W> {
    out: W,
    /// Reused across every keep-alive request: cleared and refilled by
    /// [`Conn::reply`], so it reaches its high-water capacity once and then
    /// serializes responses allocation-free.
    wout: Vec<u8>,
    shared: &'a Shared,
    tx: &'a mpsc::Sender<EngineMsg>,
    config: &'a WireConfig,
    keep_alive: bool,
}

impl<W: Write> Conn<'_, W> {
    /// The one way a response leaves the server. It counts the response in
    /// exactly one class, gives the refusals (`Rejected`, `Shed`) their one
    /// header, `Retry-After: 1`, and closes after bytes that never parsed.
    /// A failed write closes the connection but never un-counts the
    /// outcome: the ledger tracks what the server resolved, not what the
    /// peer managed to read. Returns whether the connection may continue.
    fn reply(&mut self, class: Class, status: u16, extra: &[(&str, &str)], body: &[u8]) -> bool {
        let stats = &self.shared.stats;
        let (counter, keep) = match class {
            Class::Ok => (&stats.responded_ok, self.keep_alive),
            Class::Error => (&stats.responded_error, self.keep_alive),
            Class::Rejected => (&stats.rejected, self.keep_alive),
            Class::Shed => (&stats.shed, self.keep_alive),
            Class::BadRequest => (&stats.bad_requests, false),
            Class::Timeout => (&stats.timeouts, false),
        };
        counter.fetch_add(1, Ordering::SeqCst);
        let retry = [("Retry-After", "1")];
        let extra = match class {
            Class::Rejected | Class::Shed => {
                debug_assert!(extra.is_empty(), "a refusal carries Retry-After alone");
                &retry[..]
            }
            _ => extra,
        };
        self.wout.clear();
        write_response(&mut self.wout, status, reason(status), extra, body, keep);
        let sent = self
            .out
            .write_all(&self.wout)
            .and_then(|()| self.out.flush());
        if sent.is_err() {
            stats.write_failures.fetch_add(1, Ordering::SeqCst);
        }
        sent.is_ok()
    }
}

/// Serve one connection to completion: accumulate bytes under deadline,
/// parse bounded requests, answer each exactly once, keep-alive until the
/// peer closes, errors, or goes quiet.
fn serve_connection(
    mut stream: &TcpStream,
    shared: &Shared,
    tx: &mpsc::Sender<EngineMsg>,
    config: &WireConfig,
) {
    let limits = HttpLimits::from_serving(&config.limits);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(config.write_timeout_ms.max(1))));
    let _ = stream.set_nodelay(true);

    let stats = &shared.stats;
    let mut conn = Conn {
        out: stream,
        wout: Vec::new(),
        shared,
        tx,
        config,
        keep_alive: false,
    };
    // The read accumulator drains in place and is reused across every
    // keep-alive request, like the write buffer, so steady-state pipelined
    // traffic allocates nothing on this path.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut counted_conn = false;

    loop {
        // Drain every complete request already buffered before reading
        // more (bounded pipelining: the buffer itself is capped).
        match parse_request(&buf, &limits) {
            Ok(Parsed::Complete { request, consumed }) => {
                buf.drain(..consumed);
                stats.accepted.fetch_add(1, Ordering::SeqCst);
                conn.keep_alive = request.keep_alive;
                if !respond(&mut conn, &request) || !request.keep_alive {
                    return;
                }
                continue;
            }
            Ok(Parsed::NeedMore) => {}
            Err(e) => {
                let body = format!("{{\"error\":\"{e:?}\"}}");
                conn.reply(Class::BadRequest, e.status().0, &[], body.as_bytes());
                return;
            }
        }
        if buf.len() > limits.max_buffered() {
            // Defense in depth: the parser's caps should make this
            // unreachable, but never let a connection grow without bound.
            conn.reply(Class::BadRequest, 431, &[], b"{\"error\":\"buffer cap\"}");
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    stats.idle_closes.fetch_add(1, Ordering::SeqCst);
                } else {
                    stats.incomplete.fetch_add(1, Ordering::SeqCst);
                }
                return;
            }
            Ok(n) => {
                if !counted_conn {
                    counted_conn = true;
                    stats.connections.fetch_add(1, Ordering::SeqCst);
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    stats.idle_closes.fetch_add(1, Ordering::SeqCst);
                } else {
                    // Slowloris: a partial request that stopped making
                    // progress. Answer and hang up.
                    conn.reply(Class::Timeout, 408, &[], b"{\"error\":\"request timeout\"}");
                }
                return;
            }
            Err(_) => {
                if buf.is_empty() {
                    stats.idle_closes.fetch_add(1, Ordering::SeqCst);
                } else {
                    stats.incomplete.fetch_add(1, Ordering::SeqCst);
                }
                return;
            }
        }
    }
}

/// Answer one accepted request. Returns whether the connection may
/// continue (false on write failure).
fn respond<W: Write>(conn: &mut Conn<W>, request: &Request) -> bool {
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => {
            let draining = conn.shared.draining.load(Ordering::SeqCst);
            let body = format!("{{\"ok\":true,\"draining\":{draining}}}");
            conn.reply(Class::Ok, 200, &[], body.as_bytes())
        }
        (Method::Get, "/metrics") => metrics(conn),
        (Method::Post, "/classify") => classify(conn, request),
        (Method::Post, "/admin/swap") => admin_swap(conn, request),
        // Known path, wrong method: 405 with the allowed method spelled
        // out, as RFC 9110 requires.
        (_, path @ ("/healthz" | "/metrics" | "/classify" | "/admin/swap")) => {
            let allow = if matches!(path, "/healthz" | "/metrics") {
                "GET"
            } else {
                "POST"
            };
            let body = b"{\"error\":\"method not allowed\"}";
            conn.reply(Class::Error, 405, &[("Allow", allow)], body)
        }
        _ => conn.reply(Class::Error, 404, &[], b"{\"error\":\"not found\"}"),
    }
}

/// The classification path: ingest (the body straight to the model's
/// input tensor) → engine round-trip.
fn classify<W: Write>(conn: &mut Conn<W>, request: &Request) -> bool {
    let shared = conn.shared;
    if shared.draining.load(Ordering::SeqCst) {
        return conn.reply(Class::Rejected, 503, &[], b"{\"error\":\"draining\"}");
    }
    let input = match ingest(&request.body, conn.config.out_res) {
        Ok(input) => input,
        Err(e) => {
            let body = format!("{{\"error\":\"bad image: {e}\"}}");
            return conn.reply(Class::Error, 422, &[], body.as_bytes());
        }
    };
    // In-flight gate (part of the shared ServingLimits contract).
    let cap = conn.config.limits.max_in_flight;
    if cap > 0 {
        let admitted = shared
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            return conn.reply(Class::Rejected, 503, &[], b"{\"error\":\"overloaded\"}");
        }
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let (reply_tx, reply_rx) = mpsc::channel();
    let handed_off = Instant::now();
    let outcome = if conn
        .tx
        .send(EngineMsg::Submit {
            id,
            input,
            reply: reply_tx,
        })
        .is_err()
    {
        WireOutcome::Rejected
    } else {
        // The engine guarantees one reply per submit; the timeout is a
        // last-ditch bound so a broken engine fails requests instead of
        // hanging connections forever.
        reply_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or(WireOutcome::Failed)
    };
    if cap > 0 {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
    let done;
    let (class, status, body): (_, _, &[u8]) = match outcome {
        WireOutcome::Done {
            class,
            batch,
            degraded,
            generation,
        } => {
            if degraded {
                shared.stats.degraded_ok.fetch_add(1, Ordering::SeqCst);
            } else {
                let ns = handed_off.elapsed().as_nanos() as u64;
                shared.round_trip_ns.fetch_add(ns, Ordering::Relaxed);
                shared.round_trip_requests.fetch_add(1, Ordering::Relaxed);
            }
            done = format!(
                "{{\"class\":{class},\"batch\":{batch},\"degraded\":{degraded},\"generation\":{generation}}}"
            );
            (Class::Ok, 200, done.as_bytes())
        }
        WireOutcome::BreakerOpen => {
            shared.stats.breaker_open.fetch_add(1, Ordering::SeqCst);
            (Class::Rejected, 503, b"{\"error\":\"breaker open\"}")
        }
        WireOutcome::Rejected => (Class::Rejected, 503, b"{\"error\":\"queue full\"}"),
        WireOutcome::Shed => (Class::Shed, 503, b"{\"error\":\"shed\"}"),
        WireOutcome::Failed => (Class::Error, 500, b"{\"error\":\"internal fault\"}"),
    };
    conn.reply(class, status, &[], body)
}

/// The hot-swap path: stage the artifact body through the engine's
/// integrity-gated load. One swap stages at a time (`409` for a racing
/// second one); a draining server or an open breaker answers `503`.
fn admin_swap<W: Write>(conn: &mut Conn<W>, request: &Request) -> bool {
    let shared = conn.shared;
    if shared.draining.load(Ordering::SeqCst) {
        return conn.reply(Class::Rejected, 503, &[], b"{\"error\":\"draining\"}");
    }
    if shared.swap_staging.swap(true, Ordering::SeqCst) {
        let body = b"{\"error\":\"a swap is already staging\"}";
        return conn.reply(Class::Error, 409, &[], body);
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let outcome = if conn
        .tx
        .send(EngineMsg::Swap {
            body: request.body.clone(),
            reply: reply_tx,
        })
        .is_err()
    {
        SwapOutcome::Draining
    } else {
        reply_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or(SwapOutcome::Rejected {
                error: "engine timeout".to_string(),
            })
    };
    shared.swap_staging.store(false, Ordering::SeqCst);
    let text;
    let (class, status, body): (_, _, &[u8]) = match outcome {
        SwapOutcome::Swapped {
            generation,
            fingerprint,
        } => {
            text =
                format!("{{\"generation\":{generation},\"fingerprint\":\"{fingerprint:#018x}\"}}");
            (Class::Ok, 200, text.as_bytes())
        }
        SwapOutcome::Rejected { error } => {
            text = format!("{{\"error\":\"{error}\"}}");
            (Class::Error, 422, text.as_bytes())
        }
        SwapOutcome::BreakerOpen => {
            shared.stats.breaker_open.fetch_add(1, Ordering::SeqCst);
            (Class::Rejected, 503, b"{\"error\":\"breaker open\"}")
        }
        SwapOutcome::Draining => (Class::Rejected, 503, b"{\"error\":\"draining\"}"),
    };
    conn.reply(class, status, &[], body)
}

/// The live metrics snapshot as `name value` text lines: a counter
/// section (the engine's half — generations, queues, breaker, integrity,
/// pool — then the wire ledger) that is a pure function of what was
/// served, and under a `# timing` marker line a wall-clock section (what
/// the dispatch rule did, queue waits, worker and round-trip times) that
/// is not. An engine that does not answer is a `503`, never a `200` with
/// half a body.
fn metrics<W: Write>(conn: &mut Conn<W>) -> bool {
    use std::fmt::Write as _;
    let shared = conn.shared;
    let (reply_tx, reply_rx) = mpsc::channel();
    let engine = conn
        .tx
        .send(EngineMsg::Metrics { reply: reply_tx })
        .ok()
        .and_then(|()| reply_rx.recv_timeout(Duration::from_secs(5)).ok());
    let Some((mut body, timing)) = engine else {
        return conn.reply(Class::Error, 503, &[], b"{\"error\":\"engine timeout\"}");
    };
    let snap = shared.stats.snapshot();
    let _ = writeln!(body, "wire_connections {}", snap.connections);
    let _ = writeln!(body, "wire_accepted {}", snap.accepted);
    let _ = writeln!(body, "wire_responded_ok {}", snap.responded_ok);
    let _ = writeln!(body, "wire_responded_error {}", snap.responded_error);
    let _ = writeln!(body, "wire_rejected {}", snap.rejected);
    let _ = writeln!(body, "wire_shed {}", snap.shed);
    let _ = writeln!(body, "wire_bad_requests {}", snap.bad_requests);
    let _ = writeln!(body, "wire_breaker_open {}", snap.breaker_open);
    let _ = writeln!(body, "wire_degraded_ok {}", snap.degraded_ok);
    let _ = writeln!(
        body,
        "wire_draining {}",
        shared.draining.load(Ordering::SeqCst) as u8
    );
    body.push_str("# timing\n");
    body.push_str(&timing);
    let _ = writeln!(
        body,
        "engine_round_trip_us_sum {}",
        shared.round_trip_ns.load(Ordering::Relaxed) / 1_000
    );
    let _ = writeln!(
        body,
        "engine_round_trip_requests {}",
        shared.round_trip_requests.load(Ordering::Relaxed)
    );
    let text_plain = [("Content-Type", "text/plain; version=0.0.4")];
    conn.reply(Class::Ok, 200, &text_plain, body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_response;
    use harvest_imaging::{ajpg_encode, AjpgOptions, RgbImage};

    fn post_classify(addr: SocketAddr, body: &[u8]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let (status, consumed) = parse_response(&resp, &HttpLimits::default())
            .expect("well-formed response")
            .expect("complete response");
        let head_end = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let body = String::from_utf8_lossy(&resp[head_end + 4..consumed]).into_owned();
        (status, body)
    }

    impl WireServer {
        /// Force the admission breaker open: `/classify` answers
        /// `503 Retry-After` until the cooldown elapses, then the half-open
        /// probes run through the degradation ladder.
        fn trip_breaker(&self) {
            if let Some(tx) = self.engine_tx.lock().expect("engine tx lock").as_ref() {
                let _ = tx.send(EngineMsg::TripBreaker);
            }
        }
    }

    fn sample_image() -> Vec<u8> {
        let img = RgbImage::checkerboard(24, 24, 4);
        ajpg_encode(&img, &AjpgOptions::default())
    }

    #[test]
    fn serves_health_classify_and_errors_then_drains_clean() {
        let server = WireServer::start(WireConfig {
            accept_threads: 2,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();

        // Health check.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("\"draining\":false"), "{text}");

        // A real classification.
        let (status, body) = post_classify(addr, &sample_image());
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("{\"class\":"), "{body}");

        // Garbage body: typed 422, not a closed socket.
        let (status, body) = post_classify(addr, b"not an image at all");
        assert_eq!(status, 422, "{body}");

        // Unknown path and wrong method.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));

        let report = server.shutdown();
        assert_eq!(report.threads_joined, 2 + 1, "accept loops + engine");
        assert!(report.stats.conserved(), "{:?}", report.stats);
        assert_eq!(report.stats.responded_ok, 2, "healthz + classify");
        assert_eq!(report.stats.responded_error, 2, "422 + 404");
    }

    #[test]
    fn malformed_bytes_get_typed_statuses_and_stay_out_of_the_ledger() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        for (raw, expect) in [
            (&b"GARBAGE\r\n\r\n"[..], "HTTP/1.1 400"),
            (&b"DELETE / HTTP/1.1\r\n\r\n"[..], "HTTP/1.1 501"),
            (
                &b"POST /classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                "HTTP/1.1 501",
            ),
        ] {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(raw).expect("send");
            let mut resp = Vec::new();
            stream.read_to_end(&mut resp).expect("recv");
            let text = String::from_utf8_lossy(&resp);
            assert!(text.starts_with(expect), "{raw:?} -> {text}");
        }
        // Oversize declared body is refused before any body bytes arrive.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let huge = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            ServingLimits::default().max_body_bytes + 1
        );
        stream.write_all(huge.as_bytes()).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 413"));

        let report = server.shutdown();
        assert_eq!(report.stats.accepted, 0, "nothing well-formed arrived");
        assert_eq!(report.stats.bad_requests, 4);
        assert!(report.stats.conserved());
    }

    #[test]
    fn keep_alive_pipelining_answers_every_request_in_order() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();
        let mut wire = Vec::new();
        for _ in 0..3 {
            wire.extend_from_slice(
                format!(
                    "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    img.len()
                )
                .as_bytes(),
            );
            wire.extend_from_slice(&img);
        }
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&wire).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let limits = HttpLimits::default();
        let mut statuses = Vec::new();
        let mut rest = &resp[..];
        while !rest.is_empty() {
            let (status, consumed) = parse_response(rest, &limits)
                .expect("well-formed")
                .expect("complete");
            statuses.push(status);
            rest = &rest[consumed..];
        }
        assert_eq!(statuses, vec![200, 200, 200, 200]);
        let report = server.shutdown();
        assert_eq!(report.stats.accepted, 4);
        assert_eq!(report.stats.connections, 1, "one pipelined connection");
        assert!(report.stats.conserved());
    }

    #[test]
    fn slow_partial_requests_get_408_idle_connections_close_quietly() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            read_timeout_ms: 60,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        // Slowloris: a partial head, then silence.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"POST /classify HTT").expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(
            String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 408"),
            "{}",
            String::from_utf8_lossy(&resp)
        );
        // Idle: connect, say nothing; the server hangs up without a fuss.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(resp.is_empty());
        let report = server.shutdown();
        assert_eq!(report.stats.timeouts, 1);
        assert!(report.stats.idle_closes >= 1);
        assert_eq!(report.stats.accepted, 0);
        assert!(report.stats.conserved());
    }

    #[test]
    fn breaker_ladder_refuses_degrades_then_recovers_on_the_wire() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            breaker: BreakerConfig {
                cooldown: harvest_simkit::SimTime::from_millis(150),
                close_after: 2,
                ..BreakerConfig::default()
            },
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();

        // Healthy breaker: the full model answers.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"degraded\":false"), "{body}");

        // Open breaker: the wire refuses with 503 + Retry-After before any
        // work is queued. trip_breaker() and the next Submit travel the same
        // engine channel, so the ordering is deterministic.
        server.trip_breaker();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            img.len()
        )
        .into_bytes();
        req.extend_from_slice(&img);
        stream.write_all(&req).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("Retry-After"), "{text}");
        assert!(text.contains("breaker open"), "{text}");

        // After the cooldown the breaker half-opens and probes run on the
        // degraded model: the image alone, on generation 0, classified by a
        // fresh executor over the degraded weights.
        let config = server.config();
        let rung = vit(
            "wire-degraded",
            config.degraded_model.as_ref().expect("a rung"),
        );
        let input = ingest(&img, config.out_res).expect("sample decodes");
        let class = argmax(Executor::new(&rung, 7 ^ 0x0dd).forward(&input).data());
        let degraded =
            format!("{{\"class\":{class},\"batch\":1,\"degraded\":true,\"generation\":0}}");
        std::thread::sleep(Duration::from_millis(300));
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, degraded);

        // Enough successful probes close the breaker; the full model is back.
        let mut recovered = false;
        for _ in 0..10 {
            let (status, body) = post_classify(addr, &img);
            if status == 200 && body.contains("\"degraded\":false") {
                recovered = true;
                break;
            }
            if body.contains("\"degraded\":true") {
                assert_eq!(body, degraded);
            }
        }
        assert!(recovered, "breaker never closed after successful probes");

        // The engine counts exactly the degraded answers the wire sent.
        let (status, text) = raw_request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200, "{text}");
        let executed = metric(&text, "executed_requests_degraded");
        assert_eq!(executed, metric(&text, "wire_degraded_ok"), "{text}");
        assert_eq!(metric(&text, "queue_depth_degraded"), 0, "{text}");

        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
        assert!(report.stats.breaker_open >= 1, "{:?}", report.stats);
        assert!(report.stats.degraded_ok >= 1, "{:?}", report.stats);
        assert_eq!(report.stats.degraded_ok, executed, "{:?}", report.stats);
    }

    /// Send one raw request, return (status, full response text).
    fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let (status, _) = parse_response(&resp, &HttpLimits::default())
            .expect("well-formed response")
            .expect("complete response");
        (status, String::from_utf8_lossy(&resp).into_owned())
    }

    fn artifact_for(model: &VitConfig, seed: u64) -> Vec<u8> {
        let g = vit("artifact", model);
        harvest_engine::encode_artifact(&harvest_engine::MaterializedWeights::new(
            &g,
            &harvest_engine::WeightStore::new(seed),
            false,
        ))
    }

    #[test]
    fn wrong_methods_get_405_with_allow_header() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        for (method, path, allow) in [
            ("POST", "/healthz", "Allow: GET"),
            ("POST", "/metrics", "Allow: GET"),
            ("GET", "/classify", "Allow: POST"),
            ("GET", "/admin/swap", "Allow: POST"),
        ] {
            let (status, text) = raw_request(addr, method, path, b"");
            assert_eq!(status, 405, "{method} {path}: {text}");
            assert!(
                text.contains(allow),
                "{method} {path} missing header: {text}"
            );
        }
        let report = server.shutdown();
        assert_eq!(report.stats.responded_error, 4);
        assert!(report.stats.conserved());
    }

    #[test]
    fn hot_swap_switches_generations_and_shows_in_metrics() {
        let server = WireServer::start(WireConfig {
            accept_threads: 2,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();

        // Before any swap, classifications carry generation 0.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":0"), "{body}");

        // A verified artifact swaps in as generation 1…
        let artifact = artifact_for(&server.config().model, 99);
        let (status, text) = raw_request(addr, "POST", "/admin/swap", &artifact);
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"generation\":1"), "{text}");

        // …and the next classification runs on it.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":1"), "{body}");

        // A corrupt artifact is refused with a typed 422 and changes nothing.
        let mut bad = artifact.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        let (status, text) = raw_request(addr, "POST", "/admin/swap", &bad);
        assert_eq!(status, 422, "{text}");
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":1"), "{body}");

        // The metrics snapshot shows the whole story.
        let (status, text) = raw_request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("Content-Type: text/plain"), "{text}");
        for line in [
            "generation_current 1",
            "generation_previous 0",
            "swaps_total 1",
            "rollbacks_total 0",
            "rejected_loads_total 1",
            "breaker_state 0",
            "ladder_degraded_configured 1",
            "integrity_enabled 0",
            "wire_draining 0",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }

        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
        // 3 classifies + 1 swap + 1 metrics ok; 1 rejected swap errored.
        assert_eq!(report.stats.responded_ok, 5, "{:?}", report.stats);
        assert_eq!(report.stats.responded_error, 1, "{:?}", report.stats);
    }

    #[test]
    fn poisoned_swap_rolls_back_on_first_batch_over_the_wire() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();

        // A poisoned artifact: self-consistent checksums over garbage
        // exponents, so the load gate passes and the swap publishes.
        let g = vit("poisoned", &server.config().model);
        let mut w = harvest_engine::MaterializedWeights::new(
            &g,
            &harvest_engine::WeightStore::new(99),
            false,
        );
        w.for_each_buffer_mut(|_, buf| {
            buf[0] = f32::from_bits(buf[0].to_bits() | 0x7800_0000);
        });
        let poisoned = harvest_engine::encode_artifact(&w);
        let (status, text) = raw_request(addr, "POST", "/admin/swap", &poisoned);
        assert_eq!(status, 200, "load gate passes: {text}");
        assert!(text.contains("\"generation\":1"), "{text}");

        // The first batch trips the swap sentinel: automatic rollback, the
        // request is answered from generation 0, generation 1 serves no one.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":0"), "{body}");

        let (status, text) = raw_request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        for line in [
            "generation_current 0",
            "swaps_total 1",
            "rollbacks_total 1",
            "quarantined_generations 1",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
    }

    /// Run one classify per image on its own thread; results come back in
    /// image order regardless of completion order.
    fn concurrent_classifies(addr: SocketAddr, imgs: &[Vec<u8>]) -> Vec<(u16, String)> {
        std::thread::scope(|s| {
            let handles: Vec<_> = imgs
                .iter()
                .map(|img| s.spawn(move || post_classify(addr, img)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }

    #[test]
    fn pool_widths_serve_identical_responses() {
        // Six distinct frames, served sequentially so batch compositions
        // are fixed; the full response bodies (class, batch, generation)
        // must be byte-identical at every pool width.
        let imgs: Vec<Vec<u8>> = [1usize, 2, 3, 4, 6, 8]
            .iter()
            .map(|&cell| {
                let img = RgbImage::checkerboard(24, 24, cell);
                ajpg_encode(&img, &AjpgOptions::default())
            })
            .collect();
        let mut reference: Option<Vec<String>> = None;
        for width in [1usize, 2, 4] {
            let server = WireServer::start(WireConfig {
                accept_threads: 1,
                engine_workers: width,
                ..WireConfig::default()
            })
            .expect("start");
            let addr = server.addr();
            let bodies: Vec<String> = imgs
                .iter()
                .map(|img| {
                    let (status, body) = post_classify(addr, img);
                    assert_eq!(status, 200, "width {width}: {body}");
                    body
                })
                .collect();
            // The pool counters account for every request, whichever idle
            // worker took it.
            let (status, text) = raw_request(addr, "GET", "/metrics", b"");
            assert_eq!(status, 200);
            assert!(text.contains(&format!("pool_workers {width}")), "{text}");
            let served: u64 = text
                .lines()
                .filter(|l| l.starts_with("pool_worker_") && l.contains("_requests "))
                .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(served, imgs.len() as u64, "width {width}:\n{text}");
            let report = server.shutdown();
            assert!(report.stats.conserved(), "{:?}", report.stats);
            match &reference {
                None => reference = Some(bodies),
                Some(r) => assert_eq!(r, &bodies, "width {width} diverged from width 1"),
            }
        }
    }

    #[test]
    fn mid_burst_swap_at_width_4_conserves_tags_and_replays() {
        // A concurrent burst, a swap, another burst — at width 4 with
        // single-request batches so every response body is deterministic.
        // Every request is conserved, completions are tagged with the
        // generation that served them on both sides of the swap, and the
        // whole transcript replays byte-identically.
        let imgs: Vec<Vec<u8>> = [1usize, 2, 3, 4]
            .iter()
            .map(|&cell| {
                let img = RgbImage::checkerboard(24, 24, cell);
                ajpg_encode(&img, &AjpgOptions::default())
            })
            .collect();
        let run = || {
            let server = WireServer::start(WireConfig {
                accept_threads: 4,
                engine_workers: 4,
                preferred_batch: 1,
                ..WireConfig::default()
            })
            .expect("start");
            let addr = server.addr();
            let mut transcript: Vec<String> = Vec::new();
            let before = concurrent_classifies(addr, &imgs);
            for (status, body) in &before {
                assert_eq!(*status, 200, "{body}");
                assert!(body.contains("\"generation\":0"), "{body}");
            }
            let artifact = artifact_for(&server.config().model, 99);
            let (status, text) = raw_request(addr, "POST", "/admin/swap", &artifact);
            assert_eq!(status, 200, "{text}");
            assert!(text.contains("\"generation\":1"), "{text}");
            let after = concurrent_classifies(addr, &imgs);
            for (status, body) in &after {
                assert_eq!(*status, 200, "{body}");
                assert!(body.contains("\"generation\":1"), "{body}");
            }
            let (status, metrics_text) = raw_request(addr, "GET", "/metrics", b"");
            assert_eq!(status, 200);
            for line in [
                "pool_workers 4",
                "generation_current 1",
                "swaps_total 1",
                "rollbacks_total 0",
            ] {
                assert!(
                    metrics_text.contains(line),
                    "missing {line:?} in:\n{metrics_text}"
                );
            }
            transcript.extend(before.into_iter().map(|(_, b)| b));
            transcript.push(text);
            transcript.extend(after.into_iter().map(|(_, b)| b));
            let report = server.shutdown();
            assert!(report.stats.conserved(), "{:?}", report.stats);
            // 8 classifies + 1 swap + 1 metrics, no errors, nothing lost.
            assert_eq!(report.stats.responded_ok, 10, "{:?}", report.stats);
            assert_eq!(report.stats.responded_error, 0, "{:?}", report.stats);
            transcript
        };
        assert_eq!(run(), run(), "mid-burst swap must replay byte-identically");
    }

    #[test]
    fn in_flight_gate_is_pool_wide_under_saturation() {
        // max_in_flight=2 with no pool behind it at all: the gate sits in
        // front of the engine channel and counts every admitted request,
        // whichever worker would serve it. A stand-in engine holds the
        // first two submits, so both slots stay taken until it answers;
        // a third classify in that window is refused and never reaches it.
        let config = WireConfig {
            limits: ServingLimits {
                max_in_flight: 2,
                ..ServingLimits::default()
            },
            ..WireConfig::default()
        };
        let shared = Shared::default();
        let request = Request {
            method: Method::Post,
            path: "/classify".to_string(),
            keep_alive: false,
            body: sample_image(),
        };
        // One accepted request through its own `Conn`; the bytes it drew.
        let classify = |tx: &mpsc::Sender<EngineMsg>| {
            shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
            let mut conn = Conn {
                out: Vec::new(),
                wout: Vec::new(),
                shared: &shared,
                tx,
                config: &config,
                keep_alive: false,
            };
            assert!(respond(&mut conn, &request));
            String::from_utf8(conn.out).expect("ascii response")
        };
        let (tx, rx) = mpsc::channel::<EngineMsg>();
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        // Nothing is asserted inside the scope, so a broken gate fails the
        // test instead of leaving the stand-in waiting for its release.
        let (refused, served, extra) = std::thread::scope(|s| {
            let engine = s.spawn(move || {
                let replies: Vec<_> = rx
                    .iter()
                    .take(2)
                    .map(|msg| match msg {
                        EngineMsg::Submit { reply, .. } => reply,
                        _ => panic!("the stand-in expects submits"),
                    })
                    .collect();
                held_tx.send(()).expect("signal");
                release_rx.recv().expect("release");
                for reply in replies {
                    let done = WireOutcome::Done {
                        class: 1,
                        batch: 1,
                        degraded: false,
                        generation: 0,
                    };
                    let _ = reply.send(done);
                }
                // Whatever else reaches the engine before every sender is gone.
                rx.iter().count()
            });
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    let tx = tx.clone();
                    let classify = &classify;
                    s.spawn(move || classify(&tx))
                })
                .collect();
            held.recv().expect("the stand-in holds both submits");
            let refused = classify(&tx);
            release.send(()).expect("release");
            let served: Vec<String> = clients
                .into_iter()
                .map(|c| c.join().expect("client"))
                .collect();
            drop(tx);
            (refused, served, engine.join().expect("stand-in"))
        });
        assert_eq!(
            refused,
            "HTTP/1.1 503 Service Unavailable\r\n\
             Content-Length: 22\r\n\
             Content-Type: application/json\r\n\
             Retry-After: 1\r\n\
             Connection: close\r\n\r\n\
             {\"error\":\"overloaded\"}"
        );
        assert_eq!(extra, 0, "a third submit got through");
        for out in &served {
            assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
            assert!(
                out.ends_with("{\"class\":1,\"batch\":1,\"degraded\":false,\"generation\":0}"),
                "{out}"
            );
        }
        let snap = shared.stats.snapshot();
        assert_eq!((snap.responded_ok, snap.rejected), (2, 1), "{snap:?}");
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(shared.in_flight.load(Ordering::SeqCst), 0);
    }

    /// Runs the real `engine_loop` (its shell, its `Pool`, `engine_workers`
    /// worker threads) over `n` submits and a `Stop`, all queued before the
    /// loop starts, and returns what each id was answered. Worker
    /// completions travel on the same FIFO channel behind them, so every
    /// submit is decided while every dispatched batch is still running: the
    /// pool is saturated by construction, however long a forward takes.
    fn preloaded_engine(config: WireConfig, n: u64) -> Vec<Vec<WireOutcome>> {
        let batcher = batcher_config(&config).expect("valid batcher");
        let (tx, rx) = mpsc::channel();
        let answers: Vec<_> = (0..n)
            .map(|id| {
                let (reply, answers) = mpsc::channel();
                let input = Tensor::zeros(&[3, config.out_res, config.out_res]);
                tx.send(EngineMsg::Submit { id, input, reply })
                    .expect("queued");
                answers
            })
            .collect();
        tx.send(EngineMsg::Stop).expect("queued");
        engine_loop(rx, tx, config, batcher);
        answers.iter().map(|a| a.try_iter().collect()).collect()
    }

    /// `Done` from the full model at generation 0, in a batch of `batch`.
    fn done_in(batch: usize, outcome: &WireOutcome) -> bool {
        matches!(
            *outcome,
            WireOutcome::Done { batch: b, degraded: false, generation: 0, .. } if b == batch
        )
    }

    #[test]
    fn queue_saturation_rejects_cleanly_at_the_pool_frontier() {
        // max_queue=1 at width 2: two requests run, one waits in the shared
        // batcher queue, and while both workers are busy everything past
        // that is refused at once, typed, never dropped: the queue bound is
        // pool-wide and governs everything not yet running.
        let answers = preloaded_engine(
            WireConfig {
                preferred_batch: 4,
                limits: ServingLimits {
                    max_queue: 1,
                    ..ServingLimits::default()
                },
                ..WireConfig::default()
            },
            6,
        );
        for (id, answer) in answers.iter().enumerate() {
            let [outcome] = answer[..] else {
                panic!("id {id}: {answer:?}, want exactly one reply");
            };
            let expected = if id < 3 {
                done_in(1, &outcome)
            } else {
                outcome == WireOutcome::Rejected
            };
            assert!(expected, "id {id}: {outcome:?}");
        }
    }

    #[test]
    fn overload_with_drop_oldest_sheds_but_conserves() {
        // max_queue=2 at width 2 under DropOldest: ids 0 and 1 run, 2 and 3
        // queue, and each later arrival evicts the oldest queued request, so
        // 2..=5 are shed and 6 and 7 leave together as one batch.
        let answers = preloaded_engine(
            WireConfig {
                preferred_batch: 8,
                drop_oldest: true,
                limits: ServingLimits {
                    max_queue: 2,
                    ..ServingLimits::default()
                },
                ..WireConfig::default()
            },
            8,
        );
        for (id, answer) in answers.iter().enumerate() {
            let [outcome] = answer[..] else {
                panic!("id {id}: {answer:?}, want exactly one reply");
            };
            let expected = match id {
                0 | 1 => done_in(1, &outcome),
                6 | 7 => done_in(2, &outcome),
                _ => outcome == WireOutcome::Shed,
            };
            assert!(expected, "id {id}: {outcome:?}");
        }
    }

    /// The value of one `name value` line of a `/metrics` body.
    fn metric(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
            .parse()
            .expect("a counter")
    }

    #[test]
    fn timing_section_says_what_the_rule_did_and_an_idle_coordinator_never_wakes() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();
        for _ in 0..6 {
            let (status, body) = post_classify(addr, &img);
            assert_eq!(status, 200, "{body}");
        }
        let (status, text) = raw_request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200, "{text}");
        // The counter section comes first, untouched, and ends where it
        // always did; the wall-clock lines sit under the marker.
        let (counters, timing) = text.split_once("# timing\n").expect("timing marker");
        assert!(counters.ends_with("wire_draining 0\n"), "{counters}");
        assert!(!counters.contains("_us_"), "{counters}");
        // Six sequential requests on an idle pool: each left the moment it
        // was submitted, alone, having waited for nothing.
        assert_eq!(metric(timing, "dispatch_on_submit_total"), 6);
        assert_eq!(metric(timing, "dispatch_on_completion_total"), 0);
        for le in ["1", "2", "4", "8", "inf"] {
            assert_eq!(metric(timing, &format!("batch_size_le_{le}")), 6);
        }
        for le in ["10", "100", "1000", "10000", "100000", "inf"] {
            assert_eq!(metric(timing, &format!("queue_wait_us_le_{le}")), 6);
        }
        assert_eq!(metric(timing, "worker_forward_requests"), 6);
        assert_eq!(metric(timing, "engine_round_trip_requests"), 6);
        // A round trip encloses the worker's forward; the rest is hand-off.
        assert!(
            metric(timing, "engine_round_trip_us_sum") >= metric(timing, "worker_forward_us_sum"),
            "{timing}"
        );
        // Six submissions, six completions and this read woke the
        // coordinator; nothing else ever does. A second read after a pause
        // any polling tick would have shown up in counts only itself.
        assert_eq!(metric(timing, "coordinator_wakeups_total"), 13);
        std::thread::sleep(Duration::from_millis(50));
        let (_, text) = raw_request(addr, "GET", "/metrics", b"");
        assert_eq!(metric(&text, "coordinator_wakeups_total"), 14);
        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
    }

    #[test]
    fn metrics_from_a_stopped_engine_is_a_503_not_a_200_with_half_a_body() {
        let shared = Shared::default();
        // An engine channel nobody reads: the send fails at once.
        let (tx, rx) = mpsc::channel::<EngineMsg>();
        drop(rx);
        let config = WireConfig::default();
        let mut conn = Conn {
            out: Vec::new(),
            wout: Vec::new(),
            shared: &shared,
            tx: &tx,
            config: &config,
            keep_alive: false,
        };
        assert!(metrics(&mut conn));
        let text = String::from_utf8_lossy(&conn.out);
        assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
        assert!(text.ends_with("{\"error\":\"engine timeout\"}"), "{text}");
        assert!(!text.contains("wire_accepted"), "{text}");
        let snap = shared.stats.snapshot();
        assert_eq!(
            (snap.responded_error, snap.responded_ok),
            (1, 0),
            "{snap:?}"
        );
    }

    /// What the stand-in engine answers the one message it receives.
    /// `Gone`: nobody reads the channel, so a send fails at once.
    #[derive(Clone)]
    enum Engine {
        Gone,
        Classify(WireOutcome),
        Swap(SwapOutcome),
        Metrics,
    }

    /// How a table row provokes its response.
    enum Via {
        /// `respond` to an accepted request.
        Request(Method, &'static str, Vec<u8>),
        /// The connection loop's reply to bytes that never became a
        /// request, with the arguments its call site passes.
        Loop(Class, u16, &'static str),
    }

    struct Row {
        via: Via,
        engine: Engine,
        /// Server state the reply depends on, set before it is provoked.
        setup: fn(&Shared),
        /// The one class field the reply lands in, and the diagnostic
        /// overlap counter it also bumps, if any.
        moved: (&'static str, Option<&'static str>),
        /// The response, `{conn}` standing for the `Connection` value.
        bytes: &'static str,
    }

    fn fields(s: &WireSnapshot) -> [(&'static str, u64); 13] {
        [
            ("connections", s.connections),
            ("accepted", s.accepted),
            ("responded_ok", s.responded_ok),
            ("responded_error", s.responded_error),
            ("rejected", s.rejected),
            ("shed", s.shed),
            ("bad_requests", s.bad_requests),
            ("incomplete", s.incomplete),
            ("timeouts", s.timeouts),
            ("idle_closes", s.idle_closes),
            ("write_failures", s.write_failures),
            ("breaker_open", s.breaker_open),
            ("degraded_ok", s.degraded_ok),
        ]
    }

    /// Answer the one message a row sends the engine, then exit when the
    /// channel closes.
    fn stand_in(engine: Engine, rx: mpsc::Receiver<EngineMsg>) -> Option<JoinHandle<()>> {
        if let Engine::Gone = engine {
            return None;
        }
        Some(std::thread::spawn(move || match (rx.recv(), engine) {
            (Ok(EngineMsg::Submit { reply, .. }), Engine::Classify(outcome)) => {
                let _ = reply.send(outcome);
            }
            (Ok(EngineMsg::Swap { reply, .. }), Engine::Swap(outcome)) => {
                let _ = reply.send(outcome);
            }
            (Ok(EngineMsg::Metrics { reply }), Engine::Metrics) => {
                let _ = reply.send(("E 1\n".to_string(), "T 2\n".to_string()));
            }
            _ => {}
        }))
    }

    /// Every reply the server can send, byte for byte, with keep-alive on
    /// and off, and the one ledger class each lands in.
    #[test]
    fn every_reply_keeps_its_bytes_and_lands_in_one_class() {
        use Method::{Get, Post};
        let config = WireConfig {
            limits: ServingLimits {
                max_in_flight: 1,
                ..ServingLimits::default()
            },
            ..WireConfig::default()
        };
        let img = sample_image();
        let classify = || Via::Request(Post, "/classify", img.clone());
        let swap = || Via::Request(Post, "/admin/swap", b"artifact".to_vec());
        let done = |class, batch, degraded, generation| {
            Engine::Classify(WireOutcome::Done {
                class,
                batch,
                degraded,
                generation,
            })
        };
        let idle: fn(&Shared) = |_| {};
        let draining: fn(&Shared) = |s| s.draining.store(true, Ordering::SeqCst);
        let rows = vec![
            Row {
                via: Via::Loop(Class::BadRequest, 400, "{\"error\":\"BadRequestLine\"}"),
                engine: Engine::Gone,
                setup: idle,
                moved: ("bad_requests", None),
                bytes: "HTTP/1.1 400 Bad Request\r\n\
                    Content-Length: 26\r\n\
                    Content-Type: application/json\r\n\
                    Connection: close\r\n\r\n\
                    {\"error\":\"BadRequestLine\"}",
            },
            Row {
                via: Via::Loop(Class::BadRequest, 431, "{\"error\":\"buffer cap\"}"),
                engine: Engine::Gone,
                setup: idle,
                moved: ("bad_requests", None),
                bytes: "HTTP/1.1 431 Request Header Fields Too Large\r\n\
                    Content-Length: 22\r\n\
                    Content-Type: application/json\r\n\
                    Connection: close\r\n\r\n\
                    {\"error\":\"buffer cap\"}",
            },
            Row {
                via: Via::Loop(Class::Timeout, 408, "{\"error\":\"request timeout\"}"),
                engine: Engine::Gone,
                setup: idle,
                moved: ("timeouts", None),
                bytes: "HTTP/1.1 408 Request Timeout\r\n\
                    Content-Length: 27\r\n\
                    Content-Type: application/json\r\n\
                    Connection: close\r\n\r\n\
                    {\"error\":\"request timeout\"}",
            },
            Row {
                via: Via::Request(Get, "/healthz", Vec::new()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_ok", None),
                bytes: "HTTP/1.1 200 OK\r\n\
                    Content-Length: 28\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"ok\":true,\"draining\":false}",
            },
            Row {
                via: Via::Request(Post, "/healthz", Vec::new()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 405 Method Not Allowed\r\n\
                    Content-Length: 30\r\n\
                    Content-Type: application/json\r\n\
                    Allow: GET\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"method not allowed\"}",
            },
            Row {
                via: Via::Request(Post, "/metrics", Vec::new()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 405 Method Not Allowed\r\n\
                    Content-Length: 30\r\n\
                    Content-Type: application/json\r\n\
                    Allow: GET\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"method not allowed\"}",
            },
            Row {
                via: Via::Request(Get, "/classify", Vec::new()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 405 Method Not Allowed\r\n\
                    Content-Length: 30\r\n\
                    Content-Type: application/json\r\n\
                    Allow: POST\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"method not allowed\"}",
            },
            Row {
                via: Via::Request(Get, "/admin/swap", Vec::new()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 405 Method Not Allowed\r\n\
                    Content-Length: 30\r\n\
                    Content-Type: application/json\r\n\
                    Allow: POST\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"method not allowed\"}",
            },
            Row {
                via: Via::Request(Get, "/nope", Vec::new()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 404 Not Found\r\n\
                    Content-Length: 21\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"not found\"}",
            },
            Row {
                via: classify(),
                engine: Engine::Gone,
                setup: draining,
                moved: ("rejected", None),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 20\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"draining\"}",
            },
            Row {
                via: Via::Request(Post, "/classify", b"not an image at all".to_vec()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 422 Unprocessable Content\r\n\
                    Content-Length: 81\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"bad image: unrecognized image container \
                    (expected AJPG or RTIF magic)\"}",
            },
            Row {
                // An AJPG body cut short in its entropy stream: the sampled
                // decode walks every block, so its verdict is the full one's.
                via: Via::Request(Post, "/classify", img[..20].to_vec()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 422 Unprocessable Content\r\n\
                    Content-Length: 42\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"bad image: bitstream exhausted\"}",
            },
            Row {
                via: classify(),
                engine: Engine::Gone,
                setup: |s| s.in_flight.store(1, Ordering::SeqCst),
                moved: ("rejected", None),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 22\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"overloaded\"}",
            },
            Row {
                via: classify(),
                engine: done(2, 3, false, 1),
                setup: idle,
                moved: ("responded_ok", None),
                bytes: "HTTP/1.1 200 OK\r\n\
                    Content-Length: 53\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"class\":2,\"batch\":3,\"degraded\":false,\"generation\":1}",
            },
            Row {
                via: classify(),
                engine: done(1, 1, true, 0),
                setup: idle,
                moved: ("responded_ok", Some("degraded_ok")),
                bytes: "HTTP/1.1 200 OK\r\n\
                    Content-Length: 52\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"class\":1,\"batch\":1,\"degraded\":true,\"generation\":0}",
            },
            Row {
                via: classify(),
                engine: Engine::Classify(WireOutcome::BreakerOpen),
                setup: idle,
                moved: ("rejected", Some("breaker_open")),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 24\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"breaker open\"}",
            },
            Row {
                via: classify(),
                engine: Engine::Classify(WireOutcome::Rejected),
                setup: idle,
                moved: ("rejected", None),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 22\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"queue full\"}",
            },
            Row {
                via: classify(),
                engine: Engine::Classify(WireOutcome::Shed),
                setup: idle,
                moved: ("shed", None),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 16\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"shed\"}",
            },
            Row {
                via: classify(),
                engine: Engine::Classify(WireOutcome::Failed),
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 500 Internal Server Error\r\n\
                    Content-Length: 26\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"internal fault\"}",
            },
            Row {
                via: swap(),
                engine: Engine::Gone,
                setup: draining,
                moved: ("rejected", None),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 20\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"draining\"}",
            },
            Row {
                via: swap(),
                engine: Engine::Gone,
                setup: |s| s.swap_staging.store(true, Ordering::SeqCst),
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 409 Conflict\r\n\
                    Content-Length: 37\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"a swap is already staging\"}",
            },
            Row {
                via: swap(),
                engine: Engine::Swap(SwapOutcome::Swapped {
                    generation: 1,
                    fingerprint: 0xab,
                }),
                setup: idle,
                moved: ("responded_ok", None),
                bytes: "HTTP/1.1 200 OK\r\n\
                    Content-Length: 51\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"generation\":1,\"fingerprint\":\"0x00000000000000ab\"}",
            },
            Row {
                via: swap(),
                engine: Engine::Swap(SwapOutcome::Rejected {
                    error: "bad checksum".to_string(),
                }),
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 422 Unprocessable Content\r\n\
                    Content-Length: 24\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"bad checksum\"}",
            },
            Row {
                via: swap(),
                engine: Engine::Swap(SwapOutcome::BreakerOpen),
                setup: idle,
                moved: ("rejected", Some("breaker_open")),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 24\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"breaker open\"}",
            },
            Row {
                via: swap(),
                engine: Engine::Swap(SwapOutcome::Draining),
                setup: idle,
                moved: ("rejected", None),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 20\r\n\
                    Content-Type: application/json\r\n\
                    Retry-After: 1\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"draining\"}",
            },
            Row {
                via: Via::Request(Get, "/metrics", Vec::new()),
                engine: Engine::Gone,
                setup: idle,
                moved: ("responded_error", None),
                bytes: "HTTP/1.1 503 Service Unavailable\r\n\
                    Content-Length: 26\r\n\
                    Content-Type: application/json\r\n\
                    Connection: {conn}\r\n\r\n\
                    {\"error\":\"engine timeout\"}",
            },
            Row {
                via: Via::Request(Get, "/metrics", Vec::new()),
                engine: Engine::Metrics,
                setup: idle,
                moved: ("responded_ok", None),
                bytes: "HTTP/1.1 200 OK\r\n\
                    Content-Length: 254\r\n\
                    Content-Type: text/plain; version=0.0.4\r\n\
                    Connection: {conn}\r\n\r\n\
                    E 1\nwire_connections 0\nwire_accepted 1\nwire_responded_ok 0\n\
                    wire_responded_error 0\nwire_rejected 0\nwire_shed 0\n\
                    wire_bad_requests 0\nwire_breaker_open 0\nwire_degraded_ok 0\n\
                    wire_draining 0\n# timing\nT 2\nengine_round_trip_us_sum 0\n\
                    engine_round_trip_requests 0\n",
            },
        ];
        for (i, row) in rows.iter().enumerate() {
            for keep_alive in [true, false] {
                let shared = Shared::default();
                (row.setup)(&shared);
                let (tx, rx) = mpsc::channel::<EngineMsg>();
                let engine = stand_in(row.engine.clone(), rx);
                let mut conn = Conn {
                    out: Vec::new(),
                    wout: Vec::new(),
                    shared: &shared,
                    tx: &tx,
                    config: &config,
                    keep_alive,
                };
                let before = match &row.via {
                    Via::Request(method, path, body) => {
                        shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
                        let before = shared.stats.snapshot();
                        let request = Request {
                            method: *method,
                            path: path.to_string(),
                            keep_alive,
                            body: body.clone(),
                        };
                        assert!(respond(&mut conn, &request), "row {i}");
                        before
                    }
                    Via::Loop(class, status, body) => {
                        let before = shared.stats.snapshot();
                        assert!(conn.reply(*class, *status, &[], body.as_bytes()));
                        before
                    }
                };
                let out = std::mem::take(&mut conn.out);
                drop(tx);
                if let Some(engine) = engine {
                    engine.join().expect("stand-in engine");
                }
                let connection = if keep_alive { "keep-alive" } else { "close" };
                let expected = row.bytes.replace("{conn}", connection);
                let what = format!("row {i}, keep-alive {keep_alive}");
                assert_eq!(String::from_utf8_lossy(&out), expected, "{what}");
                let after = shared.stats.snapshot();
                let mut moved = Vec::new();
                for ((name, was), (_, now)) in fields(&before).into_iter().zip(fields(&after)) {
                    if now != was {
                        assert_eq!(now, was + 1, "{what}: {name}");
                        moved.push(name);
                    }
                }
                let (class, diagnostic) = row.moved;
                let expected: Vec<_> = fields(&after)
                    .into_iter()
                    .map(|(name, _)| name)
                    .filter(|&name| name == class || Some(name) == diagnostic)
                    .collect();
                assert_eq!(moved, expected, "{what}");
                assert!(after.conserved(), "{what}: {after:?}");
            }
        }
    }

    #[test]
    fn reason_table_agrees_with_the_parser() {
        use crate::http::ParseError;
        for e in [
            ParseError::BadRequestLine,
            ParseError::RequestLineTooLong,
            ParseError::UnsupportedMethod,
            ParseError::BadVersion,
            ParseError::HeadTooLarge,
            ParseError::TooManyHeaders,
            ParseError::BadHeader,
            ParseError::BadContentLength,
            ParseError::BodyTooLarge {
                declared: 2,
                cap: 1,
            },
            ParseError::UnsupportedTransferEncoding,
        ] {
            let (status, phrase) = e.status();
            assert_eq!(reason(status), phrase, "{e:?}");
        }
    }
}
