//! Real execution: a batched, weight-cached forward pass over
//! `harvest-tensor` kernels.
//!
//! The simulated engine answers "how fast would this run on an A100"; this
//! executor answers "does the model actually compute" — and, since the
//! batched rewrite, "how fast does the host actually run it". Weights are
//! generated deterministically per node (fan-in-scaled uniform init), so a
//! given (model, seed) always produces the same logits — the property the
//! integration tests and examples rely on.
//!
//! One forward path lives here, [`Executor::run`]. Weights are
//! materialized **once per executor** ([`MaterializedWeights`], in
//! [`crate::weights`]): every matmul weight is held as the GEMM's B panels,
//! laid out once so that no call packs it again, and INT8 executors
//! additionally cache the quantized weight matrices. The batch dimension is
//! folded into the kernels: a `Linear` is one `(B·s)×k` matmul; the patch
//! embedding is one token GEMM per image writing straight into its sequence
//! rows; a conv is one implicit GEMM per image, its panels packed straight
//! from the image planes. The `Mlp` and `Attention` nodes walk the batch in
//! chunks of rows sized to the cache (`CHUNK_BUDGET_BYTES`): fc1 → bias →
//! GELU → fc2 → bias per chunk of rows, QKV → bias → attention core →
//! projection → bias per chunk of whole images, each chunk's hidden, `qkv`
//! and `mixed` rows a per-thread scratch loan, the chunks one parallel
//! region. The attention core reads Q, Kᵀ and V out of the fused `qkv`
//! buffer where they lie and writes each head into its columns. A liveness
//! pass drops every node output after its last consumer, recycling the
//! backing buffers through a per-executor arena. `forward`, `forward_batch`,
//! `forward_batch_with_peak` and `forward_batch_into` are thin forwards to
//! it.
//!
//! The seed per-image path (weights regenerated from the seed on every
//! call, linears via `gemm_bt`) is not in the library: it lives in
//! `crates/engine/tests/oracle/reference.rs` as the correctness oracle that
//! `tests/reference.rs` holds this path to. The whole-batch `Mlp` and
//! `Attention` walks the chunks replaced live in
//! `crates/engine/tests/oracle/whole_batch.rs`, held bit for bit to this
//! path by `tests/chunked_nodes.rs`.
//!
//! On top of the forward sits the **integrity layer**: every materialized
//! tensor carries an FNV-1a checksum taken at construction
//! (`MaterializedWeights::verify_integrity` detects any bit of weight
//! corruption), and [`Executor::run`] takes opt-in NaN/Inf/range sentinels
//! after each GEMM stage plus deterministic activation-flip injection. The
//! sampled cross-check against a clean executor lives in
//! `harvest-serving`. A pass without guard or injection takes none of these
//! branches, and neither hook changes the bits of a pass it lets through.

use crate::weights::{
    quantize_widened, LinearWeight, MaterializedWeights, NodeWeights, WeightCorruption, WeightStore,
};
use harvest_models::{Graph, Node, NodeId, Op, Shape};
use harvest_simkit::fault::FaultPlan;
use harvest_tensor::gemm::MR;
use harvest_tensor::integrity::{flip_bit_in, scan_f32, ScanReport};
use harvest_tensor::ops::exp;
use harvest_tensor::quant::gemm_exact_i32;
use harvest_tensor::scratch::with_f32;
use harvest_tensor::{
    add_bias, attention_core, avg_pool2d_global, conv2d_into, gelu, gemm_with, layernorm,
    max_pool2d, relu, softmax_rows, KernelVariant, PanelSource, Tensor,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Buffer pool for forward-pass intermediates: freed buffers come back here
/// and are handed out again, bounding allocator churn and peak memory.
/// Since the worker-pool rewrite the arena lives inside a persistent
/// [`ExecScratch`], so the pool carries over *between* forwards: a
/// steady-state server reaches its high-water set once and then serves
/// without touching the allocator.
#[derive(Default)]
struct Arena {
    pool: Vec<Vec<f32>>,
    /// Buffers handed out.
    takes: u64,
    /// Takes served from the pool without growing a buffer.
    hits: u64,
}

impl Arena {
    /// A buffer of `len` elements, reusing a pooled allocation when one is
    /// big enough (smallest sufficient buffer wins). Reused buffers keep
    /// their stale contents: every consumer in `eval_batch` fully overwrites
    /// its output before reading it (GEMM outputs are zeroed by the kernel,
    /// copies/stacks write every element), so pre-zeroing here would be a
    /// pure memset tax — tens of MB per transformer block at large batch.
    fn take(&mut self, len: usize) -> Vec<f32> {
        self.takes += 1;
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.pool[j].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.hits += 1;
                let mut v = self.pool.swap_remove(i);
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Return a dead buffer to the pool.
    fn give(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.pool.push(v);
        }
    }

    /// Total bytes currently pooled (all buffers at rest).
    fn pooled_bytes(&self) -> u64 {
        self.pool
            .iter()
            .map(|v| (v.capacity() * std::mem::size_of::<f32>()) as u64)
            .sum()
    }
}

/// Persistent per-executor scratch state: the activation arena, the
/// per-node value table, and the counters the serving metrics export.
/// Reused across forwards (under [`Executor::set_scratch_reuse`], the
/// default) so the steady-state request path performs no heap allocation
/// once the high-water set is reached.
#[derive(Default)]
struct ExecScratch {
    arena: Arena,
    values: Vec<Option<BatchVal>>,
    passes: u64,
    high_water_bytes: u64,
}

/// Snapshot of an executor's scratch-reuse counters, exported through the
/// serving metrics endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Forward passes served through the persistent scratch.
    pub passes: u64,
    /// Arena buffer requests across those passes.
    pub arena_takes: u64,
    /// Requests served by reusing a pooled buffer.
    pub arena_hits: u64,
    /// Peak bytes pooled in the arena at rest (the scratch high-water mark).
    pub high_water_bytes: u64,
}

/// One batched activation: `b` images of `per_image` contiguous elements.
struct BatchVal {
    data: Vec<f32>,
    per_image: usize,
}

/// Activation-sentinel configuration for [`Executor::run`]:
/// after every GEMM-stage node, scan the output for NaN/Inf and (optionally)
/// finite values with |v| above `range_limit`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActivationGuard {
    /// Finite-magnitude ceiling; `None` checks only NaN/Inf.
    pub range_limit: Option<f32>,
}

/// A sentinel firing: which node's output violated the guard, and what the
/// scan saw.
#[derive(Clone, Debug)]
pub struct GuardViolation {
    /// Name of the graph node whose output tripped the sentinel.
    pub node: String,
    /// The offending scan.
    pub scan: ScanReport,
}

/// Deterministic activation-corruption context for a guarded forward pass:
/// `plan`'s coins are drawn per element of the targeted pass's output,
/// keyed by (`batch`, `attempt`) so a retry of the same batch redraws —
/// transient SDC, not a stuck fault.
#[derive(Clone, Copy)]
pub struct ActivationInjection<'p> {
    /// Fault plan supplying the pass name and the per-element coins.
    pub plan: &'p FaultPlan,
    /// Batch identity (stable across retries of the same batch).
    pub batch: u64,
    /// Execution attempt (0 first try, 1 retry, ...).
    pub attempt: u32,
}

/// What one [`Executor::run`] did.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Output elements per image written to the sink; 0 when the batch was
    /// empty or a sentinel aborted the pass.
    pub per_image: usize,
    /// Peak live activation f32 elements — the quantity the liveness pass
    /// bounds (weights excluded).
    pub peak_live_f32: usize,
    /// The sentinel violation that aborted the pass, if any.
    pub violation: Option<GuardViolation>,
    /// Activation bits actually flipped by the injection context.
    pub activation_flips: u64,
}

/// The ops whose outputs the activation sentinel scans: every node that
/// runs a GEMM-class kernel (where a corrupted multiply-accumulate would
/// surface). Cheap element-wise/reshape ops are skipped — their inputs were
/// already scanned.
fn is_gemm_stage(op: &Op) -> bool {
    matches!(
        op,
        Op::Conv2d { .. }
            | Op::Linear { .. }
            | Op::PatchEmbed { .. }
            | Op::Attention { .. }
            | Op::LinearAttention { .. }
            | Op::Mlp { .. }
    )
}

/// Bytes of one f32.
const F32: usize = std::mem::size_of::<f32>();

/// Working-set budget of one chunk of an `Mlp` or `Attention` node: the
/// chunk's input, intermediate and output rows (`(2·dim + hidden)` f32 per
/// row for an MLP, `6·dim` for attention), with the node's weights beside
/// them in the core's 2 MiB L2. Sized on whole ViT-Tiny B = 8 forwards at
/// one thread, chunked over whole-batch time interleaved rep by rep in one
/// process (15 reps each, 2-vCPU AVX-512 guest, medians): 256 KiB 0.83,
/// 384 KiB 0.83, 512 KiB 0.84, 768 KiB 0.80–0.81, 1 MiB 0.85, 1.5 MiB 0.85.
/// At 768 KiB a wire batch of two vit96 images (74 rows) is one chunk.
const CHUNK_BUDGET_BYTES: usize = 768 << 10;

/// Rows per chunk of a `rows`-row `Mlp` or `Attention` node whose chunk
/// holds `row_bytes` per row, cut in multiples of `unit` rows. The most
/// that fit [`CHUNK_BUDGET_BYTES`] and no more than an equal share per pool
/// thread: the chunk count is rounded up to a multiple of the pool width
/// before it is divided into the rows. When the chunks cannot be dealt out
/// evenly and some thread would get fewer than two (three images on two
/// threads), the node is one chunk and its kernels split its rows over the
/// pool instead. A batch that fits the budget is one chunk, so it makes the
/// calls a whole-batch walk would.
fn chunk_rows(rows: usize, row_bytes: usize, unit: usize) -> usize {
    let threads = harvest_threads::max_threads();
    let fit = (CHUNK_BUDGET_BYTES / row_bytes).max(1);
    let chunks = rows.div_ceil(fit).next_multiple_of(threads);
    let chunk = rows.div_ceil(chunks).next_multiple_of(unit);
    let count = rows.div_ceil(chunk);
    if count.is_multiple_of(threads) || count >= 2 * threads {
        chunk
    } else {
        rows
    }
}

/// Executes a graph on the host kernels through one batched, weight-cached
/// forward ([`Executor::run`]).
pub struct Executor<'g> {
    graph: &'g Graph,
    materialized: Arc<MaterializedWeights>,
    int8_linears: bool,
    /// `last_use[i]` = topological index of node `i`'s final consumer
    /// (`usize::MAX` for the output, which must outlive the pass).
    last_use: Vec<usize>,
    /// Persistent forward-pass scratch (arena + value table). Behind a
    /// mutex so the `&self` forward API is preserved; the serving pool
    /// gives each worker its own executor, so the lock is uncontended.
    scratch: Mutex<ExecScratch>,
    /// When false, every forward builds a fresh scratch (the pre-pool
    /// allocation behaviour) — the bench harness's baseline knob.
    scratch_reuse: AtomicBool,
}

fn compute_last_use(graph: &Graph) -> Vec<usize> {
    let mut last = vec![usize::MAX; graph.nodes().len()];
    for node in graph.nodes() {
        for inp in &node.inputs {
            // Topological order: later nodes overwrite with larger indices.
            last[inp.0] = node.id.0;
        }
    }
    last[graph.output().0] = usize::MAX;
    last
}

impl<'g> Executor<'g> {
    /// Executor over `graph` with weights from `seed` (f32 math). Weights
    /// are materialized eagerly, once.
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        Self::build(graph, seed, false)
    }

    /// Executor that runs every `Linear` layer through the real INT8
    /// quantized-GEMM path — the executable counterpart of the precision
    /// ablation, letting accuracy loss be *measured* on whole models. The
    /// quantized weight matrices are cached at construction.
    pub fn new_int8(graph: &'g Graph, seed: u64) -> Self {
        Self::build(graph, seed, true)
    }

    fn build(graph: &'g Graph, seed: u64, int8_linears: bool) -> Self {
        let materialized = Arc::new(MaterializedWeights::new(
            graph,
            &WeightStore::new(seed),
            int8_linears,
        ));
        let last_use = compute_last_use(graph);
        Executor {
            graph,
            materialized,
            int8_linears,
            last_use,
            scratch: Mutex::new(ExecScratch::default()),
            scratch_reuse: AtomicBool::new(true),
        }
    }

    /// Toggle persistent-scratch reuse (default on). With reuse off every
    /// forward allocates a fresh arena and value table — the pre-pool
    /// behaviour the allocation probe baselines against. Numerics are
    /// identical either way.
    pub fn set_scratch_reuse(&self, reuse: bool) {
        self.scratch_reuse.store(reuse, Ordering::SeqCst);
    }

    /// Counters for the persistent scratch: passes served, arena takes and
    /// pool hits, and the high-water pooled byte count.
    pub fn scratch_stats(&self) -> ScratchStats {
        let s = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        ScratchStats {
            passes: s.passes,
            arena_takes: s.arena.takes,
            arena_hits: s.arena.hits,
            high_water_bytes: s.high_water_bytes,
        }
    }

    /// Release all pooled scratch memory held by this executor *and* the
    /// calling thread's kernel scratch pool. Multi-model serving calls this
    /// on eviction so idle models do not pin their high-water set.
    pub fn trim_scratch(&self) {
        let mut s = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        s.arena.pool.clear();
        s.values.clear();
        drop(s);
        harvest_tensor::scratch::trim_thread_pool();
    }

    /// The one f32 GEMM family every executor runs; kept for `benchmark/`
    /// (see [`KernelVariant`]).
    pub fn kernel_variant(&self) -> KernelVariant {
        KernelVariant::Scalar
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The execution-ready weight store.
    pub fn materialized(&self) -> &MaterializedWeights {
        &self.materialized
    }

    /// Whether linear weights carry cached INT8 quantizations.
    pub fn int8_linears(&self) -> bool {
        self.int8_linears
    }

    /// A shared handle to the weights this executor currently serves from.
    /// The swap layer pins this handle so an in-flight batch keeps its
    /// generation even while a new one is published.
    pub fn weights_handle(&self) -> Arc<MaterializedWeights> {
        Arc::clone(&self.materialized)
    }

    /// Atomically adopt `weights` as the serving weights — an O(1) pointer
    /// swap, the mechanism behind hot generation swaps. The caller is
    /// responsible for having verified the new weights (checksum gate);
    /// shape compatibility with the executor's graph is asserted.
    pub fn install_weights(&mut self, weights: Arc<MaterializedWeights>) {
        assert_eq!(
            weights.nodes.len(),
            self.graph.nodes().len(),
            "installed weights cover a different graph"
        );
        self.materialized = weights;
    }

    fn check_input(&self, input: &Tensor) {
        match self.graph.input_shape() {
            Shape::Chw { c, h, w } => {
                assert_eq!(input.shape(), &[c, h, w], "input shape mismatch");
            }
            Shape::Seq { s, d } => {
                assert_eq!(input.shape(), &[s, d], "input shape mismatch");
            }
            Shape::Flat { d } => {
                assert_eq!(input.shape(), &[d], "input shape mismatch");
            }
        }
    }

    /// The one forward pass. Runs the batch with its batch dimension folded
    /// into the kernels and writes its outputs contiguously into `sink`
    /// (`inputs.len() · per_image` elements, image-major). With scratch
    /// reuse on and a recycled `sink`, a steady-state call performs no heap
    /// allocation at all.
    ///
    /// The integrity hooks are opt-in. With `guard`, the output of every
    /// GEMM-stage node is scanned for NaN/Inf and the optional |v| range,
    /// and a violation aborts the pass with an empty `sink`: corrupted work
    /// is cut short instead of completed and discarded. With `inject`, the
    /// targeted node's output gets deterministic bit flips before the scan.
    /// Neither hook changes the bits of a pass it lets through.
    pub fn run(
        &self,
        inputs: &[Tensor],
        guard: Option<&ActivationGuard>,
        inject: Option<&ActivationInjection<'_>>,
        sink: &mut Vec<f32>,
    ) -> RunReport {
        sink.clear();
        if inputs.is_empty() {
            return RunReport::default();
        }
        for x in inputs {
            self.check_input(x);
        }
        if self.scratch_reuse.load(Ordering::Relaxed) {
            let mut scratch = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
            self.forward_batch_in(inputs, guard, inject, sink, &mut scratch)
        } else {
            // Baseline mode: fresh scratch per forward (the pre-pool path).
            let mut scratch = ExecScratch::default();
            self.forward_batch_in(inputs, guard, inject, sink, &mut scratch)
        }
    }

    /// Run one input (CHW image `[3, h, w]`, token sequence `[s, d]` or
    /// flat vector `[d]`, matching the graph's input) through the model;
    /// returns the output tensor (logits for the zoo's classifiers).
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_batch(std::slice::from_ref(input))
            .pop()
            .expect("one output per input")
    }

    /// [`Executor::run`] without guard or injection, as per-image outputs.
    /// Results are bit-identical to calling [`Executor::forward`] on each
    /// input (every kernel's per-row/per-image arithmetic is independent of
    /// batch size).
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Vec<Tensor> {
        self.forward_batch_with_peak(inputs).0
    }

    /// [`Executor::forward_batch`] plus [`RunReport::peak_live_f32`].
    pub fn forward_batch_with_peak(&self, inputs: &[Tensor]) -> (Vec<Tensor>, usize) {
        let mut sink = Vec::new();
        let report = self.run(inputs, None, None, &mut sink);
        (self.outputs(&sink, report.per_image), report.peak_live_f32)
    }

    /// [`Executor::run`] without guard or injection, returning
    /// [`RunReport::per_image`].
    pub fn forward_batch_into(&self, inputs: &[Tensor], sink: &mut Vec<f32>) -> usize {
        self.run(inputs, None, None, sink).per_image
    }

    /// Slice a contiguous logits sink written by [`Executor::run`] into
    /// per-image tensors.
    pub fn outputs(&self, sink: &[f32], per_image: usize) -> Vec<Tensor> {
        let dims = shape_dims(self.graph.output_shape());
        sink.chunks_exact(per_image.max(1))
            .map(|logits| Tensor::from_vec(&dims, logits.to_vec()))
            .collect()
    }

    /// Inject deterministic weight bit flips from `plan` into the
    /// materialized weights, drawing one coin per (tensor, element) keyed
    /// by `round`. Returns the number of bits flipped. The stored checksums
    /// are *not* updated — that is the point: [`Executor::verify_weights`]
    /// afterwards reports exactly the corruption introduced here.
    pub fn inject_weight_flips(&mut self, plan: &FaultPlan, round: u64) -> u64 {
        if !plan.corrupts_weights() {
            return 0;
        }
        let mut flips = 0u64;
        // Copy-on-write: a pristine copy held elsewhere (the swap layer's
        // generation cell) is untouched by in-place corruption here.
        Arc::make_mut(&mut self.materialized).for_each_buffer_mut(|tensor_id, buf| {
            for e in 0..buf.len() {
                if let Some(bit) = plan.weight_flip(round, tensor_id, e as u64) {
                    flip_bit_in(buf, e, bit);
                    flips += 1;
                }
            }
        });
        flips
    }

    /// Re-checksum every materialized tensor against the sums taken at
    /// materialization; on mismatch names the corrupted node.
    pub fn verify_weights(&self) -> Result<(), (WeightCorruption, String)> {
        self.materialized.verify_integrity().map_err(|c| {
            let name = self.graph.nodes()[c.node].name.clone();
            (c, name)
        })
    }

    fn forward_batch_in(
        &self,
        inputs: &[Tensor],
        guard: Option<&ActivationGuard>,
        inject: Option<&ActivationInjection<'_>>,
        sink: &mut Vec<f32>,
        scratch: &mut ExecScratch,
    ) -> RunReport {
        let b = inputs.len();
        let per = self.graph.input_shape().elements();
        let n_nodes = self.graph.nodes().len();

        let ExecScratch { arena, values, .. } = scratch;
        let mut stacked = arena.take(b * per);
        for (slot, x) in stacked.chunks_exact_mut(per).zip(inputs) {
            slot.copy_from_slice(x.data());
        }
        values.clear();
        values.resize_with(n_nodes, || None);
        values[0] = Some(BatchVal {
            data: stacked,
            per_image: per,
        });
        let mut live = b * per;
        let mut peak = live;
        let mut flips = 0u64;
        let mut violation = None;
        for node in self.graph.nodes().iter().skip(1) {
            let mut out = self.eval_batch(node, values, b, arena);
            if let Some(inj) = inject {
                if inj.plan.activation_pass() == Some(node.name.as_str()) {
                    for e in 0..out.data.len() {
                        if let Some(bit) =
                            inj.plan.activation_flip(inj.batch, inj.attempt, e as u64)
                        {
                            flip_bit_in(&mut out.data, e, bit);
                            flips += 1;
                        }
                    }
                }
            }
            if let Some(g) = guard {
                if is_gemm_stage(&node.op) {
                    let scan = scan_f32(&out.data);
                    if scan.violates(g.range_limit) {
                        violation = Some(GuardViolation {
                            node: node.name.clone(),
                            scan,
                        });
                        arena.give(out.data);
                        break;
                    }
                }
            }
            live += out.data.len();
            peak = peak.max(live);
            values[node.id.0] = Some(out);
            // Liveness: everything consumed for the last time by this node
            // goes back to the arena.
            for inp in &node.inputs {
                if self.last_use[inp.0] == node.id.0 {
                    if let Some(v) = values[inp.0].take() {
                        live -= v.data.len();
                        arena.give(v.data);
                    }
                }
            }
        }
        let per_out = if violation.is_none() {
            let out = values[self.graph.output().0]
                .take()
                .expect("output computed");
            sink.extend_from_slice(&out.data);
            arena.give(out.data);
            out.per_image
        } else {
            0
        };
        // Drain every surviving intermediate back into the arena so the
        // next pass starts from the full pooled set (on the persistent
        // scratch this is what makes steady state allocation-free).
        for v in values.iter_mut() {
            if let Some(v) = v.take() {
                arena.give(v.data);
            }
        }
        scratch.passes += 1;
        scratch.high_water_bytes = scratch.high_water_bytes.max(scratch.arena.pooled_bytes());
        RunReport {
            per_image: per_out,
            peak_live_f32: peak,
            violation,
            activation_flips: flips,
        }
    }

    /// Matrix multiply `x[rows×k] → out[rows×n]` against a materialized
    /// weight, honouring the precision mode. `image_rows` is the rows of one
    /// image: INT8 activation quantization is applied per image so batched
    /// results match per-image results exactly.
    fn matmul_into(
        &self,
        x: &[f32],
        w: &LinearWeight,
        rows: usize,
        image_rows: usize,
        out: &mut [f32],
    ) {
        let (k, n) = (w.b.k(), w.b.n());
        debug_assert_eq!(x.len(), rows * k);
        debug_assert_eq!(out.len(), rows * n);
        match (&w.int8, self.int8_linears) {
            (Some((qw, w_scale)), true) => {
                debug_assert_eq!(rows % image_rows, 0);
                let images = x.chunks_exact(image_rows * k);
                for (xs, out) in images.zip(out.chunks_exact_mut(image_rows * n)) {
                    let (qa, a_scale) = quantize_widened(xs);
                    let acc = gemm_exact_i32(&qa, qw, image_rows, k, n);
                    let scale = a_scale * w_scale;
                    for (o, v) in out.iter_mut().zip(acc) {
                        *o = v as f32 * scale;
                    }
                }
            }
            _ => gemm_with(x, k, PanelSource::Packed(&w.b), out, n, rows, k, n),
        }
    }

    /// Take an input value for in-place mutation: steal the buffer when
    /// this node is its final consumer, copy into an arena buffer otherwise.
    fn take_input(
        &self,
        values: &mut [Option<BatchVal>],
        inp: NodeId,
        at: NodeId,
        arena: &mut Arena,
    ) -> BatchVal {
        if self.last_use[inp.0] == at.0 {
            values[inp.0].take().expect("topological order")
        } else {
            let v = values[inp.0].as_ref().expect("topological order");
            let mut data = arena.take(v.data.len());
            data.copy_from_slice(&v.data);
            BatchVal {
                data,
                per_image: v.per_image,
            }
        }
    }

    fn chw_of(&self, id: NodeId) -> (usize, usize, usize) {
        match self.graph.node(id).out_shape {
            Shape::Chw { c, h, w } => (c, h, w),
            s => panic!("expected CHW, got {s}"),
        }
    }

    fn eval_batch(
        &self,
        node: &Node,
        values: &mut [Option<BatchVal>],
        b: usize,
        arena: &mut Arena,
    ) -> BatchVal {
        let per_out = node.out_shape.elements();
        match &node.op {
            Op::Input { .. } => unreachable!("input pre-seeded"),
            Op::Conv2d {
                cin,
                cout,
                kernel,
                stride,
                pad,
                ..
            } => {
                let NodeWeights::Conv { weight, bias } = self.materialized.of(node.id) else {
                    unreachable!("conv weights")
                };
                let (_, h, w) = self.chw_of(node.inputs[0]);
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let mut out = arena.take(b * per_out);
                conv2d_into(
                    &x.data,
                    weight.data(),
                    bias.data(),
                    b,
                    *cin,
                    h,
                    w,
                    *cout,
                    *kernel,
                    *stride,
                    *pad,
                    &mut out,
                );
                BatchVal {
                    data: out,
                    per_image: per_out,
                }
            }
            Op::BatchNorm { channels } => {
                let NodeWeights::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                } = self.materialized.of(node.id)
                else {
                    unreachable!("bn weights")
                };
                let mut x = self.take_input(values, node.inputs[0], node.id, arena);
                let spatial = x.per_image / channels;
                harvest_tensor::batchnorm_inference(
                    &mut x.data,
                    *channels,
                    spatial,
                    mean,
                    var,
                    gamma,
                    beta.data(),
                    1e-5,
                );
                x
            }
            Op::Relu => {
                let mut x = self.take_input(values, node.inputs[0], node.id, arena);
                relu(&mut x.data);
                x
            }
            Op::Gelu => {
                let mut x = self.take_input(values, node.inputs[0], node.id, arena);
                gelu(&mut x.data);
                x
            }
            Op::MaxPool {
                kernel,
                stride,
                pad,
            } => {
                let (c, h, w) = self.chw_of(node.inputs[0]);
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let mut out = arena.take(b * per_out);
                max_pool2d(&x.data, b, c, h, w, *kernel, *stride, *pad, &mut out);
                BatchVal {
                    data: out,
                    per_image: per_out,
                }
            }
            Op::GlobalAvgPool => {
                let (c, h, w) = self.chw_of(node.inputs[0]);
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let mut out = arena.take(b * per_out);
                avg_pool2d_global(&x.data, b, c, h, w, &mut out);
                BatchVal {
                    data: out,
                    per_image: per_out,
                }
            }
            Op::Linear { cin, bias, .. } => {
                let NodeWeights::Linear { w, bias: bias_t } = self.materialized.of(node.id) else {
                    unreachable!("linear weights")
                };
                debug_assert!(bias_t.is_some() == *bias);
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let rows = x.data.len() / cin;
                let mut out = arena.take(rows * w.b.n());
                self.matmul_into(&x.data, w, rows, rows / b, &mut out);
                if let Some(bias) = bias_t {
                    add_bias(&mut out, bias.data());
                }
                BatchVal {
                    data: out,
                    per_image: per_out,
                }
            }
            Op::LayerNorm { dim } => {
                let NodeWeights::LayerNorm { gamma, beta } = self.materialized.of(node.id) else {
                    unreachable!("ln weights")
                };
                let mut x = self.take_input(values, node.inputs[0], node.id, arena);
                layernorm(&mut x.data, *dim, gamma, beta, 1e-5);
                x
            }
            Op::PatchEmbed { in_ch, patch, .. } => {
                let NodeWeights::PatchEmbed {
                    weight,
                    bias,
                    cls,
                    pos,
                } = self.materialized.of(node.id)
                else {
                    unreachable!("patch-embed weights")
                };
                let (_, h, w) = self.chw_of(node.inputs[0]);
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let (n_patches, gw, k) = ((h / patch) * (w / patch), w / patch, weight.k());
                let (s, d) = match node.out_shape {
                    Shape::Seq { s, d } => (s, d),
                    sh => panic!("patch-embed output {sh}"),
                };
                debug_assert_eq!(s, n_patches + 1);
                // Each image's patches as token rows, in the conv column
                // matrix's (c, ky, kx) order; one GEMM per image against the
                // packed weight writes them straight into sequence rows 1..s.
                let mut tokens = arena.take(b * n_patches * k);
                let images = x.data.chunks_exact(in_ch * h * w);
                for (img, rows) in images.zip(tokens.chunks_exact_mut(n_patches * k)) {
                    for (t, row) in rows.chunks_exact_mut(k).enumerate() {
                        let (y0, x0) = (t / gw * patch, t % gw * patch);
                        for (c_ky, seg) in row.chunks_exact_mut(*patch).enumerate() {
                            let (c, ky) = (c_ky / patch, c_ky % patch);
                            seg.copy_from_slice(&img[(c * h + y0 + ky) * w + x0..][..*patch]);
                        }
                    }
                }
                let mut seq = arena.take(b * s * d);
                harvest_threads::for_each_zipped_chunks(
                    &tokens,
                    n_patches * k,
                    &mut seq,
                    s * d,
                    |_, tok, seq_img| {
                        seq_img[..d].copy_from_slice(cls.data());
                        let b = PanelSource::Packed(weight);
                        gemm_with(tok, k, b, &mut seq_img[d..], d, n_patches, k, d);
                        add_bias(&mut seq_img[d..], bias.data());
                        for (v, p) in seq_img.iter_mut().zip(pos.data()) {
                            *v += p;
                        }
                    },
                );
                arena.give(tokens);
                BatchVal {
                    data: seq,
                    per_image: per_out,
                }
            }
            Op::Attention { dim, heads } => {
                let NodeWeights::Attention {
                    w_qkv,
                    b_qkv,
                    w_out,
                    b_out,
                } = self.materialized.of(node.id)
                else {
                    unreachable!("attention weights")
                };
                let s = match node.out_shape {
                    Shape::Seq { s, .. } => s,
                    sh => panic!("attention output {sh}"),
                };
                let bs = b * s;
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                // Chunks of whole images: per chunk, the fused QKV GEMM, the
                // cores (which read Q, K and V out of `qkv` where they lie
                // and write each head into its columns of `mixed`) and the
                // output projection.
                let chunk = chunk_rows(bs, 6 * dim * F32, s);
                let mut y = arena.take(bs * dim);
                harvest_threads::for_each_chunk_mut(&mut y, chunk * dim, |i, y| {
                    let rows = y.len() / dim;
                    let x = &x.data[i * chunk * dim..][..rows * dim];
                    with_f32(rows * 3 * dim, |qkv| {
                        self.matmul_into(x, w_qkv, rows, s, qkv);
                        add_bias(qkv, b_qkv.data());
                        with_f32(rows * dim, |mixed| {
                            attention_core(qkv, s, *dim, *heads, mixed);
                            self.matmul_into(mixed, w_out, rows, s, y);
                        });
                    });
                    add_bias(y, b_out.data());
                });
                BatchVal {
                    data: y,
                    per_image: per_out,
                }
            }
            Op::LinearAttention { dim, heads } => {
                let NodeWeights::LinearAttention { w_rkv, w_out } = self.materialized.of(node.id)
                else {
                    unreachable!("linear-attention weights")
                };
                let s = match node.out_shape {
                    Shape::Seq { s, .. } => s,
                    sh => panic!("linear-attention output {sh}"),
                };
                let bs = b * s;
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let mut rkv = arena.take(bs * 3 * dim);
                self.matmul_into(&x.data, w_rkv, bs, s, &mut rkv);
                let mut mixed = arena.take(bs * dim);
                // Per-image mixes are independent: each task owns one
                // image's slice of `mixed` and reads its slice of `rkv`.
                harvest_threads::for_each_chunk_mut(
                    &mut mixed[..bs * dim],
                    s * dim,
                    |img, mixed_img| {
                        linear_attention_mix(
                            &rkv[img * s * 3 * dim..(img + 1) * s * 3 * dim],
                            s,
                            *dim,
                            *heads,
                            mixed_img,
                        );
                    },
                );
                arena.give(rkv);
                let mut y = arena.take(bs * dim);
                self.matmul_into(&mixed, w_out, bs, s, &mut y);
                arena.give(mixed);
                BatchVal {
                    data: y,
                    per_image: per_out,
                }
            }
            Op::Mlp { dim, hidden } => {
                let NodeWeights::Mlp { w1, b1, w2, b2 } = self.materialized.of(node.id) else {
                    unreachable!("mlp weights")
                };
                let s = match node.out_shape {
                    Shape::Seq { s, .. } => s,
                    sh => panic!("mlp output {sh}"),
                };
                let bs = b * s;
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                // Chunks of rows (of whole images when INT8 quantizes them
                // per image): per chunk, fc1 → bias → GELU → fc2 → bias.
                let unit = if self.int8_linears { s } else { MR };
                let chunk = chunk_rows(bs, (2 * dim + hidden) * F32, unit);
                let mut out = arena.take(bs * dim);
                harvest_threads::for_each_chunk_mut(&mut out, chunk * dim, |i, out| {
                    let rows = out.len() / dim;
                    let x = &x.data[i * chunk * dim..][..rows * dim];
                    with_f32(rows * hidden, |h1| {
                        self.matmul_into(x, w1, rows, s, h1);
                        add_bias(h1, b1.data());
                        gelu(h1);
                        self.matmul_into(h1, w2, rows, s, out);
                    });
                    add_bias(out, b2.data());
                });
                BatchVal {
                    data: out,
                    per_image: per_out,
                }
            }
            Op::Add => {
                let (i0, i1) = (node.inputs[0], node.inputs[1]);
                if i0 == i1 {
                    let x = values[i0.0].as_ref().expect("topological order");
                    let mut out = arena.take(x.data.len());
                    for (o, v) in out.iter_mut().zip(&x.data) {
                        *o = v + v;
                    }
                    BatchVal {
                        data: out,
                        per_image: per_out,
                    }
                } else {
                    let mut a = self.take_input(values, i0, node.id, arena);
                    let bv = values[i1.0].as_ref().expect("topological order");
                    assert_eq!(a.data.len(), bv.data.len());
                    for (av, bvv) in a.data.iter_mut().zip(&bv.data) {
                        *av += bvv;
                    }
                    a
                }
            }
            Op::ClsSelect => {
                let x = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let d = per_out;
                let sd = x.per_image;
                let mut out = arena.take(b * d);
                for img in 0..b {
                    out[img * d..(img + 1) * d].copy_from_slice(&x.data[img * sd..img * sd + d]);
                }
                BatchVal {
                    data: out,
                    per_image: d,
                }
            }
            Op::Softmax => {
                let mut x = self.take_input(values, node.inputs[0], node.id, arena);
                softmax_rows(&mut x.data, x.per_image);
                x
            }
        }
    }
}

/// Causal linear attention with positive feature map φ=elu+1:
/// `S_t = decay·S_{t-1} + k_t ⊗ v_t ;  z_t = decay·z_{t-1} + k_t`
/// `out_t = (S_tᵀ q_t) / (z_tᵀ q_t + ε)`. `rkv` is `[s, 3·dim]`
/// (pre-projection rows); `mixed` receives `[s, dim]`.
fn linear_attention_mix(rkv: &[f32], s: usize, dim: usize, heads: usize, mixed: &mut [f32]) {
    let head_dim = dim / heads;
    debug_assert_eq!(rkv.len(), s * 3 * dim);
    debug_assert_eq!(mixed.len(), s * dim);
    // φ: elu(x)+1 keeps keys/queries positive.
    let phi = |v: f32| if v >= 0.0 { v + 1.0 } else { exp(v) };
    let decay = 0.97f32;
    for h in 0..heads {
        let off = h * head_dim;
        let mut state = vec![0.0f32; head_dim * head_dim];
        let mut z = vec![0.0f32; head_dim];
        for t in 0..s {
            let row = &rkv[t * 3 * dim..(t + 1) * 3 * dim];
            let q: Vec<f32> = row[off..off + head_dim].iter().map(|&v| phi(v)).collect();
            let k: Vec<f32> = row[dim + off..dim + off + head_dim]
                .iter()
                .map(|&v| phi(v))
                .collect();
            let v = &row[2 * dim + off..2 * dim + off + head_dim];
            for cell in state.iter_mut() {
                *cell *= decay;
            }
            for zi in z.iter_mut() {
                *zi *= decay;
            }
            for i in 0..head_dim {
                let ki = k[i];
                z[i] += ki;
                let srow = &mut state[i * head_dim..(i + 1) * head_dim];
                for (sj, &vj) in srow.iter_mut().zip(v) {
                    *sj += ki * vj;
                }
            }
            let denom: f32 = z.iter().zip(&q).map(|(zi, qi)| zi * qi).sum::<f32>() + 1e-6;
            let out = &mut mixed[t * dim + off..t * dim + off + head_dim];
            for (j, slot) in out.iter_mut().enumerate() {
                let mut num = 0.0f32;
                for i in 0..head_dim {
                    num += state[i * head_dim + j] * q[i];
                }
                *slot = num / denom;
            }
        }
    }
}

fn shape_dims(shape: Shape) -> Vec<usize> {
    match shape {
        Shape::Chw { c, h, w } => vec![c, h, w],
        Shape::Seq { s, d } => vec![s, d],
        Shape::Flat { d } => vec![d],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_models::{resnet50, vit_small, vit_tiny, ModelId};
    use harvest_tensor::integrity::checksum_f32;

    fn input_for(model: ModelId) -> Tensor {
        let n = model.input_size();
        Tensor::random(&[3, n, n], 777, 1.0)
    }

    fn small_vit() -> harvest_models::Graph {
        use harvest_models::{vit, VitConfig};
        vit(
            "small",
            &VitConfig {
                dim: 64,
                depth: 3,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 4,
                classes: 7,
            },
        )
    }

    #[test]
    fn vit_tiny_forward_produces_finite_logits() {
        let g = vit_tiny(39);
        let exec = Executor::new(&g, 42);
        let out = exec.forward(&input_for(ModelId::VitTiny));
        assert_eq!(out.shape(), &[39]);
        assert!(
            out.data().iter().all(|v| v.is_finite()),
            "non-finite logits"
        );
    }

    #[test]
    fn vit_small_forward_runs() {
        let g = vit_small(10);
        let exec = Executor::new(&g, 42);
        let out = exec.forward(&input_for(ModelId::VitSmall));
        assert_eq!(out.shape(), &[10]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn resnet50_forward_runs() {
        let g = resnet50(23);
        let exec = Executor::new(&g, 42);
        let out = exec.forward(&input_for(ModelId::ResNet50));
        assert_eq!(out.shape(), &[23]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn int8_forward_agrees_with_f32_on_most_predictions() {
        // The measured accuracy side of "INT8 may reduce accuracy": on a
        // small ViT, quantized linears flip few argmax decisions and keep
        // logits close.
        let g = small_vit();
        let f32_exec = Executor::new(&g, 9);
        let int8_exec = Executor::new_int8(&g, 9);
        let mut agree = 0;
        let n = 12;
        for i in 0..n {
            let x = Tensor::random(&[3, 16, 16], 100 + i, 1.0);
            let a = f32_exec.forward(&x);
            let b = int8_exec.forward(&x);
            assert!(b.data().iter().all(|v| v.is_finite()));
            if a.argmax() == b.argmax() {
                agree += 1;
            }
            // Logits stay close in relative terms.
            let err = harvest_tensor::quant::relative_error(a.data(), b.data());
            assert!(err < 0.25, "input {i}: logit error {err}");
        }
        assert!(agree * 3 >= n * 2, "only {agree}/{n} argmax agreements");
    }

    #[test]
    fn rwkv_vision_forward_runs_and_differs_from_vit() {
        use harvest_models::{rwkv_vision, vit, VitConfig};
        let cfg = VitConfig {
            dim: 64,
            depth: 2,
            heads: 2,
            patch: 4,
            img: 16,
            mlp_ratio: 4,
            classes: 5,
        };
        let x = Tensor::random(&[3, 16, 16], 7, 1.0);
        let rwkv = rwkv_vision("rwkv", &cfg);
        let out = Executor::new(&rwkv, 42).forward(&x);
        assert_eq!(out.shape(), &[5]);
        assert!(out.data().iter().all(|v| v.is_finite()));
        // Same geometry, different mixing: logits differ from the ViT's.
        let vit_g = vit("vit", &cfg);
        let vit_out = Executor::new(&vit_g, 42).forward(&x);
        assert!(out.max_abs_diff(&vit_out) > 1e-6);
    }

    #[test]
    fn linear_attention_is_causal() {
        // Changing the last token must not affect earlier outputs.
        use harvest_models::{GraphBuilder, Op, Shape};
        let (mut b, input) = GraphBuilder::new("la", Shape::Seq { s: 6, d: 8 });
        let la = b.push("mix", Op::LinearAttention { dim: 8, heads: 2 }, &[input]);
        let g = b.finish(la);
        let exec = Executor::new(&g, 21);
        let x1 = Tensor::random(&[6, 8], 5, 1.0);
        let mut x2 = x1.clone();
        for v in &mut x2.data_mut()[5 * 8..] {
            *v += 1.0;
        }
        let y1 = exec.forward(&x1);
        let y2 = exec.forward(&x2);
        // Tokens 0..5 identical; token 5 differs.
        let d = 8;
        for t in 0..5 {
            for j in 0..d {
                assert!(
                    (y1.data()[t * d + j] - y2.data()[t * d + j]).abs() < 1e-6,
                    "token {t} leaked future information"
                );
            }
        }
        let last_diff: f32 = (0..d)
            .map(|j| (y1.data()[5 * d + j] - y2.data()[5 * d + j]).abs())
            .sum();
        assert!(last_diff > 1e-6, "last token must change");
    }

    #[test]
    fn forward_is_deterministic_given_seed() {
        let g = vit_tiny(5);
        let x = input_for(ModelId::VitTiny);
        let a = Executor::new(&g, 1).forward(&x);
        let b = Executor::new(&g, 1).forward(&x);
        assert_eq!(a, b);
        let c = Executor::new(&g, 2).forward(&x);
        assert!(
            a.max_abs_diff(&c) > 1e-6,
            "different weights must change logits"
        );
    }

    #[test]
    fn different_inputs_give_different_logits() {
        let g = vit_tiny(5);
        let exec = Executor::new(&g, 1);
        let a = exec.forward(&Tensor::random(&[3, 32, 32], 10, 1.0));
        let b = exec.forward(&Tensor::random(&[3, 32, 32], 11, 1.0));
        assert!(a.max_abs_diff(&b) > 1e-6);
    }

    #[test]
    fn batch_matches_individual_forwards() {
        let g = vit_tiny(5);
        let exec = Executor::new(&g, 3);
        let xs = vec![
            Tensor::random(&[3, 32, 32], 1, 1.0),
            Tensor::random(&[3, 32, 32], 2, 1.0),
        ];
        let batch = exec.forward_batch(&xs);
        assert_eq!(batch[0], exec.forward(&xs[0]));
        assert_eq!(batch[1], exec.forward(&xs[1]));
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn wrong_input_shape_panics() {
        let g = vit_tiny(5);
        Executor::new(&g, 1).forward(&Tensor::zeros(&[3, 64, 64]));
    }

    #[test]
    fn forward_batch_is_bit_identical_across_reruns() {
        let g = small_vit();
        let exec = Executor::new(&g, 13);
        let xs: Vec<Tensor> = (0..5)
            .map(|i| Tensor::random(&[3, 16, 16], 90 + i, 1.0))
            .collect();
        let a = exec.forward_batch(&xs);
        let b = exec.forward_batch(&xs);
        assert_eq!(a, b, "same executor, same batch, different bits");
        // And across freshly-built executors with the same seed.
        let c = Executor::new(&g, 13).forward_batch(&xs);
        assert_eq!(a, c);
    }

    #[test]
    fn int8_batch_matches_individual_forwards() {
        // Activation quantization is applied per image in the batched
        // path, so INT8 batches reproduce per-image INT8 results exactly.
        let g = small_vit();
        let exec = Executor::new_int8(&g, 9);
        let xs: Vec<Tensor> = (0..3)
            .map(|i| Tensor::random(&[3, 16, 16], 300 + i, 1.0))
            .collect();
        let batch = exec.forward_batch(&xs);
        for (x, y) in xs.iter().zip(&batch) {
            assert_eq!(&exec.forward(x), y);
        }
    }

    #[test]
    fn int8_logits_are_pinned_across_a_k_chunk_boundary() {
        // The MLP's hidden width is 1088, so `w2` is a k = 1088 integer
        // GEMM: two k-chunks of the exact-integer f32 GEMM. Integer
        // arithmetic has one answer, so these hashes were taken from the
        // `pmaddwd` kernels the f32 GEMM replaced and may never move.
        use harvest_models::{vit, VitConfig};
        let g = vit(
            "int8-pin",
            &VitConfig {
                dim: 64,
                depth: 2,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 17,
                classes: 7,
            },
        );
        let exec = Executor::new_int8(&g, 5);
        let xs: Vec<Tensor> = (0..3)
            .map(|i| Tensor::random(&[3, 16, 16], 500 + i, 1.0))
            .collect();
        let hash = |b: usize| {
            let logits: Vec<f32> = exec
                .forward_batch(&xs[..b])
                .iter()
                .flat_map(|t| t.data().to_vec())
                .collect();
            checksum_f32(&logits)
        };
        let pinned = [(1, 0x6b39_7300_9f87_f0a3), (3, 0x34cb_2539_abe5_0079)];
        for (b, want) in pinned {
            assert_eq!(
                harvest_threads::with_threads(1, || hash(b)),
                want,
                "B={b}, one thread"
            );
            assert_eq!(hash(b), want, "B={b}, default width");
        }
    }

    #[test]
    fn liveness_bounds_peak_activation_memory() {
        // Without the liveness pass every node output stays live to the
        // end; with it the peak must be well below that total.
        let g = small_vit();
        let exec = Executor::new(&g, 21);
        let b = 4usize;
        let xs: Vec<Tensor> = (0..b)
            .map(|i| Tensor::random(&[3, 16, 16], 400 + i as u64, 1.0))
            .collect();
        let (outs, peak) = exec.forward_batch_with_peak(&xs);
        assert_eq!(outs.len(), b);
        let keep_all: usize = g.nodes().iter().map(|n| n.out_shape.elements() * b).sum();
        assert!(
            peak * 2 < keep_all,
            "peak {peak} not meaningfully below keep-everything {keep_all}"
        );
    }

    #[test]
    fn empty_batch_returns_empty() {
        let g = small_vit();
        let exec = Executor::new(&g, 3);
        assert!(exec.forward_batch(&[]).is_empty());
    }

    #[test]
    fn weight_checksums_catch_injected_flips_and_rematerialize_recovers() {
        let g = small_vit();
        let mut exec = Executor::new(&g, 42);
        assert!(exec.verify_weights().is_ok(), "pristine weights must pass");
        // Copy-on-write: the handle keeps the pristine bits the flips miss.
        let pristine = exec.weights_handle();

        let plan = FaultPlan::new(9001).with_weight_bit_flips(1e-4, false);
        let flips = exec.inject_weight_flips(&plan, 0);
        assert!(flips > 0, "rate 1e-4 over ~200k params should hit");
        let (corruption, node) = exec.verify_weights().expect_err("flip must be detected");
        assert_eq!(node, g.nodes()[corruption.node].name);

        exec.install_weights(pristine);
        assert!(
            exec.verify_weights().is_ok(),
            "the pristine copy must restore"
        );
        // And the restored weights compute the clean logits again.
        let x = Tensor::random(&[3, 16, 16], 7, 1.0);
        let clean = Executor::new(&g, 42).forward(&x);
        assert_eq!(exec.forward(&x).data(), clean.data());
    }

    #[test]
    fn checksum_catches_even_a_mantissa_lsb_flip() {
        // The flip no magnitude-based detector can see.
        let g = small_vit();
        let mut exec = Executor::new(&g, 42);
        let mut done = false;
        Arc::make_mut(&mut exec.materialized).for_each_buffer_mut(|_, buf| {
            if !done && !buf.is_empty() {
                harvest_tensor::flip_bit_in(buf, 0, 0);
                done = true;
            }
        });
        assert!(done, "model must have at least one weight buffer");
        assert!(exec.verify_weights().is_err());
    }

    #[test]
    fn sticky_weight_flips_reappear_identically_across_rounds() {
        let g = small_vit();
        let plan = FaultPlan::new(4242).with_weight_bit_flips(1e-4, true);
        let mut a = Executor::new(&g, 42);
        let mut b = Executor::new(&g, 42);
        a.inject_weight_flips(&plan, 3);
        b.inject_weight_flips(&plan, 3);
        // Same plan + same round ⇒ bit-identical corrupted weights.
        let x = Tensor::random(&[3, 16, 16], 11, 1.0);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    fn activation_sentinel_catches_injected_exponent_explosion() {
        let g = small_vit();
        let exec = Executor::new(&g, 42);
        let xs = vec![Tensor::random(&[3, 16, 16], 5, 1.0)];
        // High rate so a bit-30 flip (the one that turns a ~|1| activation
        // into ~1e38) is certain to land somewhere in the mlp output.
        let plan = FaultPlan::new(77).with_activation_bit_flips(0.25, "blocks.0.mlp");
        let guard = ActivationGuard {
            range_limit: Some(1e4),
        };
        let inj = ActivationInjection {
            plan: &plan,
            batch: 0,
            attempt: 0,
        };
        let mut sink = vec![1.0];
        let r = exec.run(&xs, Some(&guard), Some(&inj), &mut sink);
        assert!(r.activation_flips > 0, "flips must land");
        let v = r.violation.expect("sentinel must fire on exponent flips");
        assert!(sink.is_empty(), "violating pass yields no outputs");
        assert_eq!(r.per_image, 0);
        // The sentinel fires at the corrupted pass or a GEMM stage downstream
        // of it, never upstream.
        assert!(!v.node.starts_with("patch_embed") || v.node == "blocks.0.mlp");
    }

    #[test]
    fn guarded_pass_without_faults_is_bit_identical_to_plain_batch() {
        let g = small_vit();
        let exec = Executor::new(&g, 42);
        let xs: Vec<Tensor> = (0..4)
            .map(|i| Tensor::random(&[3, 16, 16], 100 + i, 1.0))
            .collect();
        let plain = exec.forward_batch(&xs);
        let guard = ActivationGuard {
            range_limit: Some(1e6),
        };
        let mut sink = Vec::new();
        let checked = exec.run(&xs, Some(&guard), None, &mut sink);
        assert!(checked.violation.is_none());
        assert_eq!(checked.activation_flips, 0);
        let outputs = exec.outputs(&sink, checked.per_image);
        assert_eq!(outputs.len(), plain.len());
        for (a, b) in plain.iter().zip(&outputs) {
            assert_eq!(a.data(), b.data(), "guard must not perturb the math");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Same FaultPlan seed ⇒ bit-identical corrupted tensors, regardless
        /// of which executor instance performs the injection.
        #[test]
        fn prop_weight_injection_is_deterministic(seed in 0u64..1_000_000, round in 0u64..4) {
            let g = small_vit();
            let plan = FaultPlan::new(seed).with_weight_bit_flips(5e-5, false);
            let mut a = Executor::new(&g, 42);
            let mut b = Executor::new(&g, 42);
            let fa = a.inject_weight_flips(&plan, round);
            let fb = b.inject_weight_flips(&plan, round);
            proptest::prop_assert_eq!(fa, fb);
            let x = Tensor::random(&[3, 16, 16], 3, 1.0);
            let (ya, yb) = (a.forward(&x), b.forward(&x));
            proptest::prop_assert_eq!(ya.data(), yb.data());
        }

        /// Activation injection draws identical coins for identical
        /// (batch, attempt) and fresh coins when the attempt changes.
        #[test]
        fn prop_activation_injection_keyed_by_attempt(seed in 0u64..1_000_000) {
            let g = small_vit();
            let plan = FaultPlan::new(seed).with_activation_bit_flips(1e-3, "blocks.0.mlp");
            let exec = Executor::new(&g, 42);
            let xs = vec![Tensor::random(&[3, 16, 16], 9, 1.0)];
            let run = |attempt: u32| {
                let inj = ActivationInjection { plan: &plan, batch: 5, attempt };
                let mut sink = Vec::new();
                let report = exec.run(&xs, None, Some(&inj), &mut sink);
                (report.activation_flips, sink)
            };
            let a0 = run(0);
            let a0b = run(0);
            proptest::prop_assert_eq!(a0.0, a0b.0);
            proptest::prop_assert_eq!(a0.1, a0b.1, "same attempt must replay identically");
        }
    }
}
