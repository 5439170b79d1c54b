//! Per-layer numbers, taken from outside through each layer's public
//! functions: kernel and engine probes at the workload's own shapes, and
//! the in-process replay of a wire request sequence with a span around
//! every call the server makes.

use crate::spec::{wire_config, KernelShape, WireSpec};
use crate::stats::{argmax, median};
use crate::trace::Tracer;
use crate::wire::{Corpus, Sample};
use harvest_engine::Executor;
use harvest_imaging::decode_auto;
use harvest_net::{parse_request, write_response, HttpLimits, Parsed};
use harvest_preproc::preprocess_decoded;
use harvest_serving::batcher::QueuedRequest;
use harvest_serving::DynamicBatcher;
use harvest_simkit::SimTime;
use harvest_tensor::attention::AttentionWeights;
use harvest_tensor::{
    batchnorm_inference, conv2d_v, gelu, gemm_v, layernorm, multi_head_attention_v, relu,
    softmax_rows, KernelVariant, Tensor,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `f`, ms: one call in a smoke run, otherwise until
/// it has both `calls` calls and 0.2 s (at most 400 calls).
fn probe_ms(smoke: bool, calls: usize, mut f: impl FnMut()) -> f64 {
    let (calls, floor_s) = if smoke { (1, 0.0) } else { (calls, 0.2) };
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 400 && (times.len() < calls || started.elapsed().as_secs_f64() < floor_s) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

fn ramp(len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i % 251) as f32 - 125.0) * scale)
        .collect()
}

pub struct KernelProbe {
    pub gemm_gflops: f64,
    /// 0 when the model has no attention.
    pub attention_gflops: f64,
    pub conv_gflops: f64,
    pub norm_act_ms: f64,
}

/// The `tensor` layer at the model's shapes, for a batch of `batch` images.
pub fn kernel_probe(
    smoke: bool,
    shape: KernelShape,
    batch: usize,
    variant: KernelVariant,
) -> KernelProbe {
    // ResNet's 3×3 stage: 64×56×56 → 64, stride 1, pad 1.
    let (cin, hw, cout, k) = (64usize, 56usize, 64usize, 3usize);
    let conv_in = ramp(cin * hw * hw, 0.01);
    let conv_w = ramp(cout * cin * k * k, 0.001);
    let conv_b = vec![0.0f32; cout];
    let conv_ms = probe_ms(smoke, 5, || {
        black_box(conv2d_v(
            variant,
            black_box(&conv_in),
            &conv_w,
            &conv_b,
            1,
            cin,
            hw,
            hw,
            cout,
            k,
            1,
            1,
        ));
    });
    let conv_flops = 2.0 * (cout * cin * k * k * hw * hw) as f64;

    let gflops = |flops: f64, ms: f64| flops / (ms * 1e-3) / 1e9;
    let gemm_at = |m: usize, kk: usize, n: usize| {
        let (a, b) = (ramp(m * kk, 0.01), ramp(kk * n, 0.001));
        let mut c = vec![0.0f32; m * n];
        let ms = probe_ms(smoke, 5, || {
            gemm_v(variant, black_box(&a), &b, &mut c, m, kk, n);
            black_box(&c);
        });
        gflops(2.0 * (m * kk * n) as f64, ms)
    };

    match shape {
        KernelShape::Vit {
            seq,
            dim,
            heads,
            depth,
            mlp_ratio,
        } => {
            let x = ramp(seq * dim, 0.01);
            let (w_qkv, w_out) = (ramp(3 * dim * dim, 0.001), ramp(dim * dim, 0.001));
            let weights = AttentionWeights {
                w_qkv: &w_qkv,
                b_qkv: &[],
                w_out: &w_out,
                b_out: &[],
            };
            let attn_ms = probe_ms(smoke, 5, || {
                black_box(multi_head_attention_v(
                    variant,
                    black_box(&x),
                    seq,
                    dim,
                    heads,
                    &weights,
                ));
            });
            // QKV and output projections plus QKᵀ and attn·V.
            let attn_flops =
                2.0 * (seq * dim * 3 * dim + 2 * seq * seq * dim + seq * dim * dim) as f64;

            // What one image's forward spends outside the GEMMs: two
            // layernorms, one GELU and one softmax per block.
            let (gamma, beta) = (vec![1.0f32; dim], vec![0.0f32; dim]);
            let mut tokens = ramp(seq * dim, 0.01);
            let mut hidden = ramp(seq * dim * mlp_ratio, 0.01);
            let mut scores = ramp(heads * seq * seq, 0.01);
            let norm_act_ms = probe_ms(smoke, 5, || {
                for _ in 0..depth {
                    layernorm(&mut tokens, dim, &gamma, &beta, 1e-6);
                    layernorm(&mut tokens, dim, &gamma, &beta, 1e-6);
                    gelu(&mut hidden);
                    softmax_rows(&mut scores, seq);
                }
                black_box((&tokens, &hidden, &scores));
            });
            KernelProbe {
                gemm_gflops: gemm_at(batch * seq, dim, dim * mlp_ratio),
                attention_gflops: gflops(attn_flops, attn_ms),
                conv_gflops: gflops(conv_flops, conv_ms),
                norm_act_ms,
            }
        }
        KernelShape::Conv => {
            // The stem's batchnorm + ReLU: the largest activation.
            let (c, spatial) = (64usize, 112 * 112);
            let mut act = ramp(c * spatial, 0.01);
            let (mean, var) = (vec![0.0f32; c], vec![1.0f32; c]);
            let norm_act_ms = probe_ms(smoke, 5, || {
                batchnorm_inference(&mut act, c, spatial, &mean, &var, &var, &mean, 1e-5);
                relu(&mut act);
                black_box(&act);
            });
            KernelProbe {
                // The same stage as an im2col GEMM.
                gemm_gflops: gemm_at(cout, cin * k * k, hw * hw),
                attention_gflops: 0.0,
                conv_gflops: gflops(conv_flops, conv_ms),
                norm_act_ms,
            }
        }
    }
}

pub struct EngineProbe {
    pub forward_b1_ms: f64,
    pub forward_speedup: f64,
    pub peak_live_mb: f64,
    pub scratch_hit_share: f64,
}

/// The `engine` and `threads` layers on one workload batch. `threads` is
/// the kernel-thread budget the workload's forward passes run under.
pub fn engine_probe(
    smoke: bool,
    exec: &Executor<'_>,
    batch: &[Tensor],
    threads: usize,
) -> EngineProbe {
    let mut sink = Vec::new();
    let forward_b1_ms = harvest_threads::with_threads(threads, || {
        probe_ms(smoke, 5, || {
            exec.forward_batch_into(black_box(&batch[..1]), &mut sink);
        })
    });
    // Whole batches of the heavy models take a second each: three calls.
    let mut forward_at = |n: usize| {
        harvest_threads::with_threads(n, || {
            probe_ms(smoke, 3, || {
                exec.forward_batch_into(black_box(batch), &mut sink);
            })
        })
    };
    let nproc = harvest_threads::hardware_threads();
    let (one, all) = (forward_at(1), forward_at(nproc));
    let (_, peak_elements) = exec.forward_batch_with_peak(batch);
    let scratch = exec.scratch_stats();
    EngineProbe {
        forward_b1_ms,
        forward_speedup: one / all,
        peak_live_mb: (peak_elements * 4) as f64 / (1 << 20) as f64,
        scratch_hit_share: scratch.arena_hits as f64 / scratch.arena_takes.max(1) as f64,
    }
}

/// What the in-process replay of a wire request sequence measured.
pub struct Replay {
    pub parse_us: f64,
    pub write_us: f64,
    pub decode_ms: f64,
    pub transform_ms: f64,
    /// Queue wait the batcher imposes at the workload's arrival times.
    pub queue_wait_ms: f64,
    pub offer_us: f64,
    /// One forward pass over a batch as the batcher formed it.
    pub forward_ms: f64,
    /// Images per second of model time: Σ batch sizes / Σ forward time.
    pub forward_images_per_s: f64,
    pub requests: usize,
}

impl Replay {
    /// Time a request spends in the stages the replay covers.
    pub fn stages_ms(&self) -> f64 {
        (self.parse_us + self.write_us) / 1e3
            + self.decode_ms
            + self.transform_ms
            + self.queue_wait_ms
            + self.forward_ms
    }
}

/// Replay state: the batcher, the requests waiting in it, and what the
/// served batches measured.
struct Replayer<'a, 'g> {
    reference: &'a Executor<'g>,
    batcher: DynamicBatcher,
    /// Per waiting request: its root span, arrival time, and input.
    waiting: HashMap<u64, (u32, SimTime, Tensor)>,
    waits_ms: Vec<f64>,
    sink: Vec<f32>,
    wout: Vec<u8>,
    batched: usize,
    forward_s: f64,
}

impl Replayer<'_, '_> {
    /// Run one formed batch, dispatched at `at`: the forward pass (on one
    /// kernel thread, as the server's pool workers run it), then a
    /// response per request.
    fn serve(&mut self, tracer: &mut Tracer, batch: &[QueuedRequest], at: SimTime) {
        let (roots, inputs): (Vec<u32>, Vec<Tensor>) = batch
            .iter()
            .map(|r| {
                let (root, arrived, input) = self
                    .waiting
                    .remove(&r.id)
                    .expect("offered before it was batched");
                self.waits_ms
                    .push(at.saturating_sub(arrived).as_millis_f64());
                (root, input)
            })
            .unzip();
        let trigger = batch.len() - 1;
        let (reference, sink) = (self.reference, &mut self.sink);
        let t = Instant::now();
        let per = tracer.span(
            "engine.forward_batch_into",
            roots[trigger],
            batch[trigger].id,
            |_, _| harvest_threads::with_threads(1, || reference.forward_batch_into(&inputs, sink)),
        );
        self.forward_s += t.elapsed().as_secs_f64();
        self.batched += inputs.len();
        for ((r, root), logits) in batch
            .iter()
            .zip(roots)
            .zip(self.sink.chunks_exact(per.max(1)))
        {
            let wout = &mut self.wout;
            tracer.span("net.write_response", root, r.id, |_, _| {
                let body = format!(
                    "{{\"class\":{},\"batch\":{},\"degraded\":false,\"generation\":0}}",
                    argmax(logits),
                    batch.len()
                );
                wout.clear();
                write_response(wout, 200, "OK", &[], body.as_bytes(), true);
                black_box(&wout);
            });
            tracer.close(root);
        }
    }
}

/// Replay `samples` (a wire run's requests, in send order) through the
/// calls the server makes for each: `parse_request` → `decode_auto` →
/// `preprocess_decoded` → `DynamicBatcher::offer/poll` →
/// `Executor::forward_batch_into` → `write_response`. The batcher sees the
/// wire run's arrival times on a simulated clock and is polled when the
/// coordinator's tick would have polled it, so it forms batches the way
/// the live server did.
pub fn replay_wire(
    tracer: &mut Tracer,
    spec: &WireSpec,
    corpus: &Corpus,
    reference: &Executor<'_>,
    limits: &HttpLimits,
    samples: &[Sample],
) -> Replay {
    let config = wire_config(spec);
    let delay = SimTime::from_millis(config.max_queue_delay_ms);
    // The coordinator wakes every `tick` after its last message, so the
    // delay trigger fires on the first tick at or past the delay.
    let tick = SimTime::from_millis(config.max_queue_delay_ms.div_ceil(2).max(1));
    let fires_after = tick.saturating_mul(delay.as_nanos().div_ceil(tick.as_nanos()));
    let batcher_config = config
        .limits
        .batcher_config(config.preferred_batch, delay)
        .expect("the wire workloads' batcher config is valid");
    let mut re = Replayer {
        reference,
        batcher: DynamicBatcher::new(batcher_config).expect("validated above"),
        waiting: HashMap::new(),
        waits_ms: Vec::new(),
        sink: Vec::new(),
        wout: Vec::new(),
        batched: 0,
        forward_s: 0.0,
    };

    // First the per-request stages, which the accept threads run before
    // the batcher sees anything: a request reaches the batcher when the
    // client sent it plus what those stages took here.
    let mut arrivals: Vec<(SimTime, u64)> = Vec::with_capacity(samples.len());
    for (id, s) in (0u64..).zip(samples) {
        let root = tracer.open("replay.request", 0, id);
        let entered = Instant::now();
        let request = tracer.span("net.parse_request", root, id, |_, _| {
            match parse_request(&corpus.requests[s.image as usize], limits) {
                Ok(Parsed::Complete { request, .. }) => request,
                other => panic!("the corpus holds complete, valid requests: {other:?}"),
            }
        });
        let img = tracer.span("imaging.decode_auto", root, id, |_, _| {
            decode_auto(&request.body).expect("the corpus is made of valid AJPG")
        });
        let input = tracer.span("preproc.preprocess_decoded", root, id, |_, _| {
            preprocess_decoded(&img, spec.out_res)
        });
        let arrived = SimTime::from_nanos(s.start_ns + entered.elapsed().as_nanos() as u64);
        re.waiting.insert(id, (root, arrived, input));
        arrivals.push((arrived, id));
    }
    // Then the batcher, in arrival order.
    arrivals.sort_unstable();
    for (now, id) in arrivals {
        // Delay-trigger polls due before this request arrived.
        while let Some(deadline) = re.batcher.next_deadline() {
            let at = deadline.saturating_sub(delay).saturating_add(fires_after);
            if at > now {
                break;
            }
            let polled = tracer.span("serving.batcher_poll", 0, id, |_, _| re.batcher.poll(at));
            match polled.batch {
                Some(batch) => re.serve(tracer, &batch, at),
                None => break,
            }
        }
        let root = re.waiting[&id].0;
        let admission = tracer.span("serving.batcher_offer", root, id, |_, _| {
            re.batcher.offer(id, now, now, None)
        });
        assert!(
            admission.admitted && admission.shed.is_empty(),
            "the replay never fills the queue"
        );
        if let Some(batch) = admission.batch {
            re.serve(tracer, &batch, now);
        }
    }
    while let Some(deadline) = re.batcher.next_deadline() {
        let at = deadline.saturating_sub(delay).saturating_add(fires_after);
        let batch = re.batcher.poll(at).batch.expect("the delay trigger is due");
        re.serve(tracer, &batch, at);
    }

    let ms = |name: &str| median(&tracer.durations_ms(name));
    Replay {
        parse_us: ms("net.parse_request") * 1e3,
        write_us: ms("net.write_response") * 1e3,
        decode_ms: ms("imaging.decode_auto"),
        transform_ms: ms("preproc.preprocess_decoded"),
        queue_wait_ms: median(&re.waits_ms),
        offer_us: ms("serving.batcher_offer") * 1e3,
        forward_ms: ms("engine.forward_batch_into"),
        forward_images_per_s: re.batched as f64 / re.forward_s,
        requests: samples.len(),
    }
}
