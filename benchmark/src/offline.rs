//! The offline workloads: the drone-survey path, in process. Encoded
//! dataset samples go through `run_real_batch` on the kernel thread pool
//! and then, one by one, into a `RealBatchServer` whose size trigger runs
//! the batch.

use crate::model::{bring_up, ModelTimings};
use crate::spec::{OfflineSpec, OFFLINE_SAMPLES};
use crate::trace::Tracer;
use harvest_data::{EncodedSample, Sampler};
use harvest_models::Graph;
use harvest_preproc::real::run_real_batch;
use harvest_serving::{BatcherConfig, RealBatchServer};
use harvest_simkit::SimTime;
use harvest_tensor::{checksum_f32, Tensor};
use std::collections::HashMap;
use std::time::Instant;

/// One batch through the path.
pub struct BatchRun {
    pub wall_ms: f64,
    /// Per-image decode and transform times, as `run_real` measured them.
    pub decode_ms: Vec<f64>,
    pub transform_ms: Vec<f64>,
    /// Did the batch come back complete, finite, and bit-identical to
    /// every earlier run of the same samples?
    pub ok: bool,
}

pub struct OfflineRig<'g> {
    pub spec: OfflineSpec,
    pub timings: ModelTimings,
    pub render_encode_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub pixels_mean: f64,
    sampler: Sampler,
    samples: Vec<EncodedSample>,
    pub server: RealBatchServer<'g>,
    epoch: Instant,
    next_id: u64,
    /// Logits checksums of each distinct batch, from its first run.
    seen: HashMap<usize, Vec<u64>>,
}

impl<'g> OfflineRig<'g> {
    /// Everything before the first timed batch: corpus, model bring-up,
    /// the batch server, and one warm-up batch.
    pub fn setup(graph: &'g Graph, spec: OfflineSpec, seed: u64) -> Result<OfflineRig<'g>, String> {
        let sampler = Sampler::new(spec.dataset, seed);
        let (mut render_encode_ms, mut encode_ms) = (Vec::new(), Vec::new());
        // `Sampler::encode`, with the codec timed apart from the renderer.
        let samples: Vec<EncodedSample> = (0..OFFLINE_SAMPLES)
            .map(|i| {
                let t = Instant::now();
                let img = sampler.render(i);
                let t_enc = Instant::now();
                let bytes = sampler.spec().format.encode(&img);
                encode_ms.push(t_enc.elapsed().as_secs_f64() * 1e3);
                render_encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
                EncodedSample {
                    meta: sampler.meta(i),
                    bytes,
                }
            })
            .collect();
        let pixels_mean =
            samples.iter().map(|s| s.meta.pixels() as f64).sum::<f64>() / samples.len() as f64;
        let (exec, timings) = bring_up(graph);
        let server = RealBatchServer::new(
            exec,
            BatcherConfig::new(spec.batch as u32, SimTime::from_millis(2)),
        )
        .map_err(|e| e.to_string())?;
        let mut rig = OfflineRig {
            spec,
            timings,
            render_encode_ms,
            encode_ms,
            pixels_mean,
            sampler,
            samples,
            server,
            epoch: Instant::now(),
            next_id: 0,
            seen: HashMap::new(),
        };
        let mut off = Tracer::new(rig.epoch, false);
        if !rig.run_batch(0, &mut off).ok {
            return Err("the warm-up batch did not complete".to_string());
        }
        Ok(rig)
    }

    /// Distinct batches the corpus holds; batch `k` reuses `k % distinct`.
    pub fn distinct_batches(&self) -> usize {
        self.samples.len() / self.spec.batch
    }

    /// The model inputs of distinct batch `which`, for the engine probes.
    pub fn inputs(&self, which: usize) -> Vec<Tensor> {
        let b = self.spec.batch;
        run_real_batch(
            self.sampler.spec(),
            &self.samples[which * b..(which + 1) * b],
            self.spec.out_res,
        )
        .into_iter()
        .map(|r| r.expect("the corpus decodes").tensor)
        .collect()
    }

    /// Run batch `k`: preprocess its samples, submit them, and check what
    /// the size trigger returns.
    pub fn run_batch(&mut self, k: usize, tracer: &mut Tracer) -> BatchRun {
        let b = self.spec.batch;
        let which = k % self.distinct_batches();
        let samples = &self.samples[which * b..(which + 1) * b];
        let (server, epoch, next_id) = (&mut self.server, self.epoch, &mut self.next_id);
        let spec = self.sampler.spec();
        let out_res = self.spec.out_res;
        let started = Instant::now();
        let mut run = BatchRun {
            wall_ms: 0.0,
            decode_ms: Vec::with_capacity(b),
            transform_ms: Vec::with_capacity(b),
            ok: true,
        };
        let mut logits: Vec<(u64, u64)> = Vec::with_capacity(b);
        tracer.span("offline.batch", 0, k as u64, |tracer, root| {
            let inputs = tracer.span("preproc.run_real_batch", root, k as u64, |_, _| {
                run_real_batch(spec, samples, out_res)
            });
            let first_id = *next_id;
            for input in inputs {
                let Ok(pre) = input else {
                    run.ok = false;
                    continue;
                };
                run.decode_ms.push(pre.decode_s * 1e3);
                run.transform_ms.push(pre.transform_s * 1e3);
                let id = *next_id;
                *next_id += 1;
                let done = tracer.span("serving.submit", root, id, |_, _| {
                    let now = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
                    server.submit(id, pre.tensor, now)
                });
                run.ok &= done.admitted && done.shed.is_empty();
                for c in done.completed {
                    run.ok &= c.batch_size == b && c.output.data().iter().all(|v| v.is_finite());
                    logits.push((c.id - first_id, checksum_f32(c.output.data())));
                }
            }
        });
        run.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        logits.sort_unstable();
        let prints: Vec<u64> = logits.into_iter().map(|(_, f)| f).collect();
        run.ok &= prints.len() == b && server.take_faults().is_empty();
        run.ok &= *self.seen.entry(which).or_insert_with(|| prints.clone()) == prints;
        run
    }
}
