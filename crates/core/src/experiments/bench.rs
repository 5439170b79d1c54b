//! The logits ledger: the executor's determinism contract, written down.
//!
//! Two micro models (a ViT, and a plain CNN so the conv, pooling and
//! batchnorm path is covered too) run through the one forward path at a
//! few batch sizes. Each row holds the evidence for one (model, batch,
//! input seed):
//!
//! * `rel_err_vs_reference` — the largest relative L2 error of the batched
//!   logits against one image at a time through [`Executor::forward`] on
//!   one thread (`with_threads(1, …)`): no batching, no pool. It must stay
//!   below `1e-4` and reads 0, the batch invariance the engine's `widths`
//!   suite pins;
//! * `logits_fingerprint` — an order-sensitive FNV-1a 64 over the batch's
//!   logit bits, asserted equal at pool widths 1 and 2 and on a rerun;
//! * `peak_live_f32` — the liveness pass's peak live activation elements.
//!
//! Nothing here reads a clock, so the report is byte-identical across
//! runs, processes and pool widths, and `artifacts/BENCH.json` is held to
//! it byte for byte. Timing the same forwards is `experiments host`'s job
//! and the repo benchmark's (`benchmark/`).

use harvest_engine::Executor;
use harvest_models::{vit, Graph, GraphBuilder, Op, Shape, VitConfig};
use harvest_tensor::Tensor;
use serde::Serialize;

/// One (model, batch, input seed) row of the ledger.
#[derive(Clone, Debug, Serialize)]
pub struct BenchModel {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Seed of the batch's first input image; image `i` uses `seed + i`.
    pub input_seed: u64,
    /// Largest relative L2 error of the batched logits against one image at
    /// a time on one thread.
    pub rel_err_vs_reference: f64,
    /// FNV-1a 64 over the batch's logit bits: the same at every pool width
    /// and on every rerun.
    pub logits_fingerprint: String,
    /// Peak live activation f32 elements during the batched forward (what
    /// the liveness pass bounds).
    pub peak_live_f32: usize,
}

/// The logits ledger (`BENCH.json`).
#[derive(Clone, Debug, Serialize)]
pub struct BenchReport {
    /// One row per (model, batch, input seed).
    pub models: Vec<BenchModel>,
}

/// Order-sensitive FNV-1a 64 over the bit patterns of a batch of logits.
fn fingerprint(outputs: &[Tensor]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in outputs.iter().flat_map(|t| t.data()) {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One ledger row: `batch` images seeded from `input_seed` through an
/// executor whose weights are seeded 42.
fn ledger_row(graph: &Graph, batch: usize, input_seed: u64) -> BenchModel {
    let name = graph.name();
    let exec = Executor::new(graph, 42);
    let side = match graph.input_shape() {
        Shape::Chw { h, .. } => h,
        s => panic!("image models only, got {s}"),
    };
    let inputs: Vec<Tensor> = (0..batch as u64)
        .map(|i| Tensor::random(&[3, side, side], input_seed + i, 1.0))
        .collect();
    let alone: Vec<Tensor> =
        harvest_threads::with_threads(1, || inputs.iter().map(|x| exec.forward(x)).collect());
    let [(outputs, peak), (wide, _)] =
        [1, 2].map(|t| harvest_threads::with_threads(t, || exec.forward_batch_with_peak(&inputs)));
    let fp = fingerprint(&outputs);
    assert_eq!(
        fp,
        fingerprint(&wide),
        "{name} B={batch}: logits changed between pool widths 1 and 2"
    );
    assert_eq!(
        fp,
        fingerprint(&exec.forward_batch(&inputs)),
        "{name} B={batch}: forward_batch not deterministic"
    );
    let rel_err = outputs
        .iter()
        .zip(&alone)
        .map(|(out, reference)| harvest_tensor::quant::relative_error(reference.data(), out.data()))
        .fold(0.0, f64::max);
    assert!(
        rel_err < 1e-4,
        "{name} B={batch}: batched vs one-at-a-time relative error {rel_err}"
    );
    BenchModel {
        model: name.to_string(),
        batch,
        input_seed,
        rel_err_vs_reference: rel_err,
        logits_fingerprint: fp,
        peak_live_f32: peak,
    }
}

/// A small plain CNN so the smoke run covers the conv/pool/BN path too.
fn micro_cnn() -> Graph {
    let (mut b, input) = GraphBuilder::new("cnn-micro", Shape::Chw { c: 3, h: 16, w: 16 });
    let conv1 = b.push(
        "conv1",
        Op::Conv2d {
            cin: 3,
            cout: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
            bias: true,
        },
        &[input],
    );
    let bn1 = b.push("bn1", Op::BatchNorm { channels: 8 }, &[conv1]);
    let relu1 = b.push("relu1", Op::Relu, &[bn1]);
    let pool = b.push(
        "pool",
        Op::MaxPool {
            kernel: 2,
            stride: 2,
            pad: 0,
        },
        &[relu1],
    );
    let conv2 = b.push(
        "conv2",
        Op::Conv2d {
            cin: 8,
            cout: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
            bias: true,
        },
        &[pool],
    );
    let relu2 = b.push("relu2", Op::Relu, &[conv2]);
    let gap = b.push("gap", Op::GlobalAvgPool, &[relu2]);
    let fc = b.push(
        "fc",
        Op::Linear {
            cin: 16,
            cout: 10,
            bias: true,
        },
        &[gap],
    );
    b.finish(fc)
}

/// Build the logits ledger. Every assert above runs on every row.
pub fn bench() -> BenchReport {
    let micro_vit = vit(
        "vit-micro",
        &VitConfig {
            dim: 64,
            depth: 2,
            heads: 2,
            patch: 4,
            img: 16,
            mlp_ratio: 4,
            classes: 10,
        },
    );
    let cnn = micro_cnn();
    let rows = [
        (&micro_vit, 1, 1000),
        (&micro_vit, 4, 1000),
        (&cnn, 1, 1000),
        (&cnn, 4, 1000),
        (&micro_vit, 4, 2000),
    ];
    BenchReport {
        models: rows
            .into_iter()
            .map(|(graph, batch, seed)| ledger_row(graph, batch, seed))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_reproducible_exact_and_well_formed() {
        let report = bench();
        let json = serde_json::to_string(&report).expect("serializable");
        assert_eq!(json, serde_json::to_string(&bench()).unwrap());
        assert_eq!(report.models.len(), 5);
        for m in &report.models {
            assert_eq!(m.rel_err_vs_reference, 0.0, "{} B={}", m.model, m.batch);
            assert_eq!(m.logits_fingerprint.len(), 16);
            assert!(m.logits_fingerprint.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(m.peak_live_f32 > 0);
        }
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2], vec![2.0, 1.0]);
        assert_ne!(fingerprint(&[a.clone(), b.clone()]), fingerprint(&[b, a]));
    }
}
