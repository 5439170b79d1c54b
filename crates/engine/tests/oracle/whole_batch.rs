//! `mlp_whole_batch` and `attention_whole_batch`: the executor's `Mlp` and
//! `Attention` arms before they ran in row chunks, the bodies kept verbatim —
//! each step over all `B·s` rows at once, the hidden and `qkv` buffers
//! batch-sized arena loans. Only the executor's bindings became arguments,
//! `self.matmul_into` became [`matmul_into`] (a copy, the precision mode an
//! argument) and the arena is a copy of the executor's, without its counters.

use harvest_tensor::quant::{gemm_exact_i32, quantize_symmetric};
use harvest_tensor::{add_bias, attention_core, gelu, gemm_with, PackedB, PanelSource};

/// The executor's activation arena: freed buffers come back and are handed
/// out again, smallest sufficient buffer first, stale contents kept.
#[derive(Default)]
pub struct Arena {
    pool: Vec<Vec<f32>>,
}

impl Arena {
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.pool[j].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut v = self.pool.swap_remove(i);
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    pub fn give(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.pool.push(v);
        }
    }
}

/// A matmul weight as the executor holds it: the GEMM's B panels and, for
/// an INT8 executor's MLP, the cached quantization of the `k×n` matrix.
pub struct LinearWeight {
    pub b: PackedB,
    pub int8: Option<(Vec<f32>, f32)>,
}

impl LinearWeight {
    /// The weight whose logical `k×n` view is `kxn`, quantized when `int8`.
    pub fn new(kxn: &[f32], k: usize, n: usize, int8: bool) -> Self {
        LinearWeight {
            b: PackedB::new(PanelSource::Dense { b: kxn, ldb: n }, k, n),
            int8: int8.then(|| quantize_widened(kxn)),
        }
    }
}

/// `harvest_engine::weights::quantize_widened`, copied.
pub fn quantize_widened(x: &[f32]) -> (Vec<f32>, f32) {
    let q = quantize_symmetric(x);
    (q.data.iter().map(|&v| v as f32).collect(), q.scale)
}

/// `Executor::matmul_into` as it was, `int8_linears` an argument.
pub fn matmul_into(
    int8_linears: bool,
    x: &[f32],
    w: &LinearWeight,
    rows: usize,
    groups: usize,
    out: &mut [f32],
) {
    let (k, n) = (w.b.k(), w.b.n());
    debug_assert_eq!(x.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    match (&w.int8, int8_linears) {
        (Some((qw, w_scale)), true) => {
            debug_assert_eq!(rows % groups, 0);
            let rpg = rows / groups;
            for g in 0..groups {
                let xs = &x[g * rpg * k..(g + 1) * rpg * k];
                let (qa, a_scale) = quantize_widened(xs);
                let acc = gemm_exact_i32(&qa, qw, rpg, k, n);
                let scale = a_scale * w_scale;
                for (o, v) in out[g * rpg * n..(g + 1) * rpg * n].iter_mut().zip(acc) {
                    *o = v as f32 * scale;
                }
            }
        }
        _ => gemm_with(x, k, PanelSource::Packed(&w.b), out, n, rows, k, n),
    }
}

/// The `Op::Mlp { dim, hidden }` arm over a batch of `b` sequences of `s`
/// rows: fc1 → bias → GELU → fc2 → bias, each once over all `b·s` rows.
#[allow(clippy::too_many_arguments)]
pub fn mlp_whole_batch(
    int8_linears: bool,
    x: &[f32],
    (w1, b1, w2, b2): (&LinearWeight, &[f32], &LinearWeight, &[f32]),
    b: usize,
    s: usize,
    dim: usize,
    hidden: usize,
    arena: &mut Arena,
) -> Vec<f32> {
    let bs = b * s;
    let mut h1 = arena.take(bs * hidden);
    matmul_into(int8_linears, x, w1, bs, b, &mut h1);
    add_bias(&mut h1, b1);
    gelu(&mut h1);
    let mut out = arena.take(bs * dim);
    matmul_into(int8_linears, &h1, w2, bs, b, &mut out);
    arena.give(h1);
    add_bias(&mut out, b2);
    out
}

/// The `Op::Attention { dim, heads }` arm over a batch of `b` sequences of
/// `s` rows: QKV → bias → `attention_core` → proj → bias, each once over all
/// `b·s` rows.
#[allow(clippy::too_many_arguments)]
pub fn attention_whole_batch(
    int8_linears: bool,
    x: &[f32],
    (w_qkv, b_qkv, w_out, b_out): (&LinearWeight, &[f32], &LinearWeight, &[f32]),
    b: usize,
    s: usize,
    dim: usize,
    heads: usize,
    arena: &mut Arena,
) -> Vec<f32> {
    let bs = b * s;
    // Fused QKV over the whole batch: one (B·s)×(3·dim) GEMM.
    let mut qkv = arena.take(bs * 3 * dim);
    matmul_into(int8_linears, x, w_qkv, bs, b, &mut qkv);
    add_bias(&mut qkv, b_qkv);
    // The cores read Q, K and V out of `qkv` where they lie and
    // write each head into its columns of `mixed`; blocks of the
    // batch's query rows fan out over the pool in one region.
    let mut mixed = arena.take(bs * dim);
    attention_core(&qkv, s, dim, heads, &mut mixed);
    arena.give(qkv);
    let mut y = arena.take(bs * dim);
    matmul_into(int8_linears, &mixed, w_out, bs, b, &mut y);
    add_bias(&mut y, b_out);
    arena.give(mixed);
    y
}
