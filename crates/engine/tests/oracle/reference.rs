//! `forward_reference(graph, seed, int8, input)`: the seed per-image forward
//! pass, moved out of `harvest_engine::exec` with its logic unchanged. The
//! weights come from the seed on every call through a copy of
//! `WeightStore::tensor`'s derivation, so corruption of an executor's
//! materialized weights can never reach this path.

use harvest_models::{Graph, NodeId, Op, Shape};
use harvest_tensor::attention::AttentionWeights;
use harvest_tensor::ops::exp;
use harvest_tensor::{
    avg_pool2d_global, conv2d, gelu, layernorm, max_pool2d, multi_head_attention, relu,
    softmax_rows, Tensor,
};

/// The seed per-image forward pass of `graph` with the weights of `seed`,
/// INT8 linears when `int8` (the `Executor::new_int8` counterpart).
pub fn forward_reference(graph: &Graph, seed: u64, int8: bool, input: &Tensor) -> Tensor {
    Reference {
        graph,
        weights: WeightStore { seed },
        int8_linears: int8,
    }
    .forward_reference(input)
}

/// `harvest_engine::WeightStore`'s derivation, copied: fan-in-scaled
/// uniform weights keyed by (seed, node, role).
struct WeightStore {
    seed: u64,
}

impl WeightStore {
    fn tensor(&self, node: NodeId, role: u64, shape: &[usize], fan_in: usize) -> Tensor {
        let scale = 1.0 / (fan_in.max(1) as f32).sqrt();
        Tensor::random(
            shape,
            self.seed ^ (node.0 as u64) << 20 ^ role.wrapping_mul(0x517C_C1B7_2722_0A95),
            scale,
        )
    }
}

struct Reference<'g> {
    graph: &'g Graph,
    weights: WeightStore,
    int8_linears: bool,
}

impl Reference<'_> {
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

    /// Matrix multiply `x[rows×cin] · wᵀ` honouring the precision mode —
    /// reference (seed) implementation.
    fn linear_matmul_reference(
        &self,
        x: &[f32],
        w_t: &[f32],
        rows: usize,
        cin: usize,
        cout: usize,
    ) -> Vec<f32> {
        if self.int8_linears {
            // quantized_gemm wants b as k×n; w_t is cout×cin — transpose.
            let mut b = vec![0.0f32; cin * cout];
            for j in 0..cout {
                for p in 0..cin {
                    b[p * cout + j] = w_t[j * cin + p];
                }
            }
            harvest_tensor::quant::quantized_gemm(x, &b, rows, cin, cout)
        } else {
            let mut out = vec![0.0f32; rows * cout];
            harvest_tensor::gemm::gemm_bt(x, w_t, &mut out, rows, cin, cout);
            out
        }
    }

    /// The seed per-image forward pass: weights regenerated every call,
    /// every intermediate held until the end.
    fn forward_reference(&self, input: &Tensor) -> Tensor {
        self.check_input(input);
        let mut values: Vec<Option<Tensor>> = vec![None; self.graph.nodes().len()];
        values[0] = Some(input.clone());
        for node in self.graph.nodes().iter().skip(1) {
            let out = self.eval_reference(node.id, &values);
            values[node.id.0] = Some(out);
        }
        values[self.graph.output().0]
            .take()
            .expect("output computed")
    }

    fn eval_reference(&self, id: NodeId, values: &[Option<Tensor>]) -> Tensor {
        let node = self.graph.node(id);
        let arg = |i: usize| -> &Tensor {
            values[node.inputs[i].0]
                .as_ref()
                .expect("topological order")
        };
        match &node.op {
            Op::Input { .. } => unreachable!("input pre-seeded"),
            Op::Conv2d {
                cin,
                cout,
                kernel,
                stride,
                pad,
                bias,
            } => {
                let x = arg(0);
                let (h, w) = match self.graph.node(node.inputs[0]).out_shape {
                    Shape::Chw { h, w, .. } => (h, w),
                    s => panic!("conv input {s}"),
                };
                let weight = self.weights.tensor(
                    id,
                    0,
                    &[cout * cin * kernel * kernel],
                    cin * kernel * kernel,
                );
                let bias_t = if *bias {
                    self.weights.tensor(id, 1, &[*cout], *cin)
                } else {
                    Tensor::zeros(&[0])
                };
                let out = conv2d(
                    x.data(),
                    weight.data(),
                    bias_t.data(),
                    1,
                    *cin,
                    h,
                    w,
                    *cout,
                    *kernel,
                    *stride,
                    *pad,
                );
                let (oh, ow) = match node.out_shape {
                    Shape::Chw { h, w, .. } => (h, w),
                    s => panic!("conv output {s}"),
                };
                Tensor::from_vec(&[*cout, oh, ow], out)
            }
            Op::BatchNorm { channels } => {
                // Inference BN with near-identity statistics (a trained
                // model folds these anyway): gamma ~ 1, beta small.
                let mut x = arg(0).clone();
                let spatial = x.len() / channels;
                let gamma = vec![1.0f32; *channels];
                let beta = self.weights.tensor(id, 0, &[*channels], *channels);
                let mean = vec![0.0f32; *channels];
                let var = vec![1.0f32; *channels];
                harvest_tensor::batchnorm_inference(
                    x.data_mut(),
                    *channels,
                    spatial,
                    &mean,
                    &var,
                    &gamma,
                    beta.data(),
                    1e-5,
                );
                x
            }
            Op::Relu => {
                let mut x = arg(0).clone();
                relu(x.data_mut());
                x
            }
            Op::Gelu => {
                let mut x = arg(0).clone();
                gelu(x.data_mut());
                x
            }
            Op::MaxPool {
                kernel,
                stride,
                pad,
            } => {
                let x = arg(0);
                let (c, h, w) = match self.graph.node(node.inputs[0]).out_shape {
                    Shape::Chw { c, h, w } => (c, h, w),
                    s => panic!("pool input {s}"),
                };
                let (oh, ow) = match node.out_shape {
                    Shape::Chw { h, w, .. } => (h, w),
                    s => panic!("pool output {s}"),
                };
                let mut out = vec![0.0f32; c * oh * ow];
                max_pool2d(x.data(), 1, c, h, w, *kernel, *stride, *pad, &mut out);
                Tensor::from_vec(&[c, oh, ow], out)
            }
            Op::GlobalAvgPool => {
                let x = arg(0);
                let (c, h, w) = match self.graph.node(node.inputs[0]).out_shape {
                    Shape::Chw { c, h, w } => (c, h, w),
                    s => panic!("gap input {s}"),
                };
                let mut out = vec![0.0f32; c];
                avg_pool2d_global(x.data(), 1, c, h, w, &mut out);
                Tensor::from_vec(&[c], out)
            }
            Op::Linear { cin, cout, bias } => {
                let x = arg(0);
                let rows = x.len() / cin;
                let w = self.weights.tensor(id, 0, &[cout * cin], *cin);
                let mut out = self.linear_matmul_reference(x.data(), w.data(), rows, *cin, *cout);
                if *bias {
                    let b = self.weights.tensor(id, 1, &[*cout], *cin);
                    harvest_tensor::add_bias(&mut out, b.data());
                }
                match node.out_shape {
                    Shape::Seq { s, d } => Tensor::from_vec(&[s, d], out),
                    Shape::Flat { d } => Tensor::from_vec(&[d], out),
                    s => panic!("linear output {s}"),
                }
            }
            Op::LayerNorm { dim } => {
                let mut x = arg(0).clone();
                let gamma = vec![1.0f32; *dim];
                let beta = vec![0.0f32; *dim];
                layernorm(x.data_mut(), *dim, &gamma, &beta, 1e-5);
                x
            }
            Op::PatchEmbed { in_ch, dim, patch } => {
                let x = arg(0);
                let (h, w) = match self.graph.node(node.inputs[0]).out_shape {
                    Shape::Chw { h, w, .. } => (h, w),
                    s => panic!("patch-embed input {s}"),
                };
                // Strided conv with kernel = stride = patch.
                let weight = self.weights.tensor(
                    id,
                    0,
                    &[dim * in_ch * patch * patch],
                    in_ch * patch * patch,
                );
                let bias = self.weights.tensor(id, 1, &[*dim], in_ch * patch * patch);
                let conv = conv2d(
                    x.data(),
                    weight.data(),
                    bias.data(),
                    1,
                    *in_ch,
                    h,
                    w,
                    *dim,
                    *patch,
                    *patch,
                    0,
                );
                let (gh, gw) = (h / patch, w / patch);
                let n_patches = gh * gw;
                let (s, d) = match node.out_shape {
                    Shape::Seq { s, d } => (s, d),
                    sh => panic!("patch-embed output {sh}"),
                };
                debug_assert_eq!(s, n_patches + 1);
                // conv output is [dim, gh, gw]; tokens want [n_patches, dim].
                let mut seq = vec![0.0f32; s * d];
                let cls = self.weights.tensor(id, 2, &[*dim], *dim);
                seq[..d].copy_from_slice(cls.data());
                for p in 0..n_patches {
                    for c in 0..d {
                        seq[(p + 1) * d + c] = conv[c * n_patches + p];
                    }
                }
                // Learned positional embedding.
                let pos = self.weights.tensor(id, 3, &[s * d], *dim);
                for (v, p) in seq.iter_mut().zip(pos.data()) {
                    *v += p;
                }
                Tensor::from_vec(&[s, d], seq)
            }
            Op::Attention { dim, heads } => {
                let x = arg(0);
                let (s, d) = match node.out_shape {
                    Shape::Seq { s, d } => (s, d),
                    sh => panic!("attention output {sh}"),
                };
                debug_assert_eq!(d, *dim);
                let w_qkv = self.weights.tensor(id, 0, &[3 * dim * dim], *dim);
                let b_qkv = self.weights.tensor(id, 1, &[3 * dim], *dim);
                let w_out = self.weights.tensor(id, 2, &[dim * dim], *dim);
                let b_out = self.weights.tensor(id, 3, &[*dim], *dim);
                let weights = AttentionWeights {
                    w_qkv: w_qkv.data(),
                    b_qkv: b_qkv.data(),
                    w_out: w_out.data(),
                    b_out: b_out.data(),
                };
                Tensor::from_vec(
                    &[s, d],
                    multi_head_attention(x.data(), s, *dim, *heads, &weights),
                )
            }
            Op::LinearAttention { dim, heads } => {
                let x = arg(0);
                let (s, d) = match node.out_shape {
                    Shape::Seq { s, d } => (s, d),
                    sh => panic!("linear-attention output {sh}"),
                };
                let w_rkv = self.weights.tensor(id, 0, &[3 * dim * dim], *dim);
                let w_out = self.weights.tensor(id, 2, &[dim * dim], *dim);
                let mut rkv = vec![0.0f32; s * 3 * dim];
                harvest_tensor::gemm::gemm_bt(x.data(), w_rkv.data(), &mut rkv, s, *dim, 3 * dim);
                let mut mixed = vec![0.0f32; s * d];
                linear_attention_mix(&rkv, s, *dim, *heads, &mut mixed);
                let mut y = vec![0.0f32; s * d];
                harvest_tensor::gemm::gemm_bt(&mixed, w_out.data(), &mut y, s, *dim, *dim);
                Tensor::from_vec(&[s, d], y)
            }
            Op::Mlp { dim, hidden } => {
                let x = arg(0);
                let (s, d) = match node.out_shape {
                    Shape::Seq { s, d } => (s, d),
                    sh => panic!("mlp output {sh}"),
                };
                let w1 = self.weights.tensor(id, 0, &[hidden * dim], *dim);
                let b1 = self.weights.tensor(id, 1, &[*hidden], *dim);
                let w2 = self.weights.tensor(id, 2, &[dim * hidden], *hidden);
                let b2 = self.weights.tensor(id, 3, &[*dim], *hidden);
                let mut h1 = self.linear_matmul_reference(x.data(), w1.data(), s, *dim, *hidden);
                harvest_tensor::add_bias(&mut h1, b1.data());
                gelu(&mut h1);
                let mut out = self.linear_matmul_reference(&h1, w2.data(), s, *hidden, *dim);
                harvest_tensor::add_bias(&mut out, b2.data());
                Tensor::from_vec(&[s, d], out)
            }
            Op::Add => {
                let a = arg(0);
                let b = arg(1);
                assert_eq!(a.shape(), b.shape());
                let data = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
                Tensor::from_vec(a.shape(), data)
            }
            Op::ClsSelect => {
                let x = arg(0);
                let (_, d) = match self.graph.node(node.inputs[0]).out_shape {
                    Shape::Seq { s, d } => (s, d),
                    sh => panic!("cls input {sh}"),
                };
                Tensor::from_vec(&[d], x.data()[..d].to_vec())
            }
            Op::Softmax => {
                let mut x = arg(0).clone();
                let cols = x.len();
                softmax_rows(x.data_mut(), cols);
                x
            }
        }
    }
}

/// Causal linear attention with positive feature map φ=elu+1:
/// `S_t = decay·S_{t-1} + k_t ⊗ v_t ;  z_t = decay·z_{t-1} + k_t`
/// `out_t = (S_tᵀ q_t) / (z_tᵀ q_t + ε)`. `rkv` is `[s, 3·dim]`
/// (pre-projection rows); `mixed` receives `[s, dim]`. A copy of the
/// engine's recurrence, so the oracle shares no code with what it checks.
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
