//! How a graph's weights are held: generated once per executor from the
//! seed ([`WeightStore`]) into [`MaterializedWeights`], in the layouts the
//! batched forward consumes. Every matmul weight — linear, attention QKV and
//! output, MLP, RWKV, and the patch embedding — is the GEMM's B operand
//! packed into its panels ([`PackedB`]) once, here, so no forward packs it
//! again; INT8 executors also cache the quantized linears, dense `k×n`.
//!
//! Outside the kernel a packed weight is seen in its logical order
//! ([`MaterializedWeights::for_each_buffer`]): checksums, the generation
//! fingerprint, the artifact format and fault injection read and write that
//! order, so the panels' layout never reaches them.

use harvest_models::{Graph, NodeId, Op, Shape};
use harvest_tensor::integrity::checksum_f32;
use harvest_tensor::quant::quantize_symmetric;
use harvest_tensor::{PackedB, PanelSource, Tensor};

/// Deterministic per-node weights for a graph.
pub struct WeightStore {
    seed: u64,
}

impl WeightStore {
    /// Weights derived from `seed`.
    pub fn new(seed: u64) -> Self {
        WeightStore { seed }
    }

    /// The out-major `[n][k]` weight [`WeightStore::tensor`] generates
    /// (fan-in `k`), packed as the GEMM's `k×n` B. The panels are allocated
    /// before the tensor, so the tensor is freed from the top of the heap
    /// instead of leaving a hole under them.
    fn packed(&self, node: NodeId, role: u64, k: usize, n: usize) -> PackedB {
        let mut b = PackedB::zeros(k, n);
        let w = self.tensor(node, role, &[n * k], k);
        b.repack(PanelSource::Transposed {
            b: w.data(),
            ldb: k,
        });
        b
    }

    fn tensor(&self, node: NodeId, role: u64, shape: &[usize], fan_in: usize) -> Tensor {
        let scale = 1.0 / (fan_in.max(1) as f32).sqrt();
        Tensor::random(
            shape,
            self.seed ^ (node.0 as u64) << 20 ^ role.wrapping_mul(0x517C_C1B7_2722_0A95),
            scale,
        )
    }
}

/// A matmul weight as the GEMM reads it: the `k×n` B operand packed once,
/// at materialization, into the kernel's panels ([`PackedB`]), with an
/// optional cached symmetric INT8 quantization of the same matrix, dense
/// `k×n`: its i8 values widened once to f32, the B operand of
/// [`gemm_exact_i32`](harvest_tensor::quant::gemm_exact_i32), and its
/// scale. Outside the kernel — checksums, artifacts, fault injection — the
/// weight is seen in its logical `k×n` order ([`Order::KxN`]).
#[derive(Clone)]
pub(crate) struct LinearWeight {
    pub(crate) b: PackedB,
    pub(crate) int8: Option<(Vec<f32>, f32)>,
}

impl LinearWeight {
    /// `b`, with its INT8 quantization cached when `quantize`.
    fn new(b: PackedB, quantize: bool) -> Self {
        let int8 = quantize.then(|| quantize_widened(&Order::KxN.view(&b)));
        LinearWeight { b, int8 }
    }
}

/// The order a packed weight is shown in outside the kernel; every
/// checksum, artifact byte and injected flip is taken in this order.
#[derive(Clone, Copy)]
enum Order {
    /// Row-major `k×n`: a linear's B as it is multiplied.
    KxN,
    /// Row-major `n×k`: the patch embedding's `[dim][in_ch·p²]` conv weight.
    OutMajor,
}

impl Order {
    /// `w` written out in this order into `view`.
    fn read(self, w: &PackedB, view: &mut Vec<f32>) {
        view.resize(w.k() * w.n(), 0.0);
        match self {
            Order::KxN => w.unpack(view, w.n(), 1),
            Order::OutMajor => w.unpack(view, 1, w.k()),
        }
    }

    fn view(self, w: &PackedB) -> Vec<f32> {
        let mut view = Vec::new();
        self.read(w, &mut view);
        view
    }

    /// Packs `view`, in this order, over `w`'s panels.
    fn write(self, w: &mut PackedB, view: &[f32]) {
        let (k, n) = (w.k(), w.n());
        w.repack(match self {
            Order::KxN => PanelSource::Dense { b: view, ldb: n },
            Order::OutMajor => PanelSource::Transposed { b: view, ldb: k },
        });
    }
}

/// One f32 tensor of a node as it is held: a plain buffer, or a weight
/// packed for the GEMM and seen in its [`Order`].
enum Held<B, P> {
    Plain(B),
    Packed(P, Order),
}

/// Symmetric INT8 quantization of `x` as the integer-valued f32 operand
/// [`gemm_exact_i32`](harvest_tensor::quant::gemm_exact_i32) multiplies, and
/// its scale.
pub(crate) fn quantize_widened(x: &[f32]) -> (Vec<f32>, f32) {
    let q = quantize_symmetric(x);
    (q.data.iter().map(|&v| v as f32).collect(), q.scale)
}

/// Per-node weights in execution-ready form.
#[derive(Clone)]
pub(crate) enum NodeWeights {
    /// No learned state (input, activations, pooling, add, softmax, …).
    None,
    /// Conv kernel as the GEMM A operand `[cout][cin·k·k]` plus bias
    /// (empty when the op has none).
    Conv { weight: Tensor, bias: Tensor },
    /// Inference BN constants: near-identity statistics, learned beta.
    BatchNorm {
        gamma: Vec<f32>,
        beta: Tensor,
        mean: Vec<f32>,
        var: Vec<f32>,
    },
    /// LayerNorm affine constants (identity in this zoo).
    LayerNorm { gamma: Vec<f32>, beta: Vec<f32> },
    Linear {
        w: LinearWeight,
        bias: Option<Tensor>,
    },
    /// The patch weight as the packed B of the token GEMM (`in_ch·p²` ×
    /// `dim`), seen out-major like the conv weight it is.
    PatchEmbed {
        weight: PackedB,
        bias: Tensor,
        cls: Tensor,
        pos: Tensor,
    },
    Attention {
        w_qkv: LinearWeight,
        b_qkv: Tensor,
        w_out: LinearWeight,
        b_out: Tensor,
    },
    LinearAttention {
        w_rkv: LinearWeight,
        w_out: LinearWeight,
    },
    Mlp {
        w1: LinearWeight,
        b1: Tensor,
        w2: LinearWeight,
        b2: Tensor,
    },
}

impl NodeWeights {
    /// Every f32 tensor this node owns, tagged with a stable role index.
    /// Enumeration order is fixed (struct-field order), which keeps
    /// checksum and injection identities stable across runs.
    fn buffers(&self) -> Vec<(u64, Held<&[f32], &PackedB>)> {
        use Held::{Packed, Plain};
        match self {
            NodeWeights::None => Vec::new(),
            NodeWeights::Conv { weight, bias } => {
                vec![(0, Plain(weight.data())), (1, Plain(bias.data()))]
            }
            NodeWeights::BatchNorm {
                gamma,
                beta,
                mean,
                var,
            } => vec![
                (0, Plain(&gamma[..])),
                (1, Plain(beta.data())),
                (2, Plain(mean)),
                (3, Plain(var)),
            ],
            NodeWeights::LayerNorm { gamma, beta } => {
                vec![(0, Plain(&gamma[..])), (1, Plain(beta))]
            }
            NodeWeights::Linear { w, bias } => {
                let mut v = vec![(0, Packed(&w.b, Order::KxN))];
                if let Some(b) = bias {
                    v.push((1, Plain(b.data())));
                }
                v
            }
            NodeWeights::PatchEmbed {
                weight,
                bias,
                cls,
                pos,
            } => vec![
                (0, Packed(weight, Order::OutMajor)),
                (1, Plain(bias.data())),
                (2, Plain(cls.data())),
                (3, Plain(pos.data())),
            ],
            NodeWeights::Attention {
                w_qkv,
                b_qkv,
                w_out,
                b_out,
            } => vec![
                (0, Packed(&w_qkv.b, Order::KxN)),
                (1, Plain(b_qkv.data())),
                (2, Packed(&w_out.b, Order::KxN)),
                (3, Plain(b_out.data())),
            ],
            NodeWeights::LinearAttention { w_rkv, w_out } => vec![
                (0, Packed(&w_rkv.b, Order::KxN)),
                (1, Packed(&w_out.b, Order::KxN)),
            ],
            NodeWeights::Mlp { w1, b1, w2, b2 } => vec![
                (0, Packed(&w1.b, Order::KxN)),
                (1, Plain(b1.data())),
                (2, Packed(&w2.b, Order::KxN)),
                (3, Plain(b2.data())),
            ],
        }
    }

    /// Mutable twin of [`NodeWeights::buffers`], same roles and order.
    fn buffers_mut(&mut self) -> Vec<(u64, Held<&mut [f32], &mut PackedB>)> {
        use Held::{Packed, Plain};
        match self {
            NodeWeights::None => Vec::new(),
            NodeWeights::Conv { weight, bias } => {
                vec![(0, Plain(weight.data_mut())), (1, Plain(bias.data_mut()))]
            }
            NodeWeights::BatchNorm {
                gamma,
                beta,
                mean,
                var,
            } => vec![
                (0, Plain(&mut gamma[..])),
                (1, Plain(beta.data_mut())),
                (2, Plain(&mut mean[..])),
                (3, Plain(&mut var[..])),
            ],
            NodeWeights::LayerNorm { gamma, beta } => {
                vec![(0, Plain(&mut gamma[..])), (1, Plain(&mut beta[..]))]
            }
            NodeWeights::Linear { w, bias } => {
                let mut v = vec![(0, Packed(&mut w.b, Order::KxN))];
                if let Some(b) = bias {
                    v.push((1, Plain(b.data_mut())));
                }
                v
            }
            NodeWeights::PatchEmbed {
                weight,
                bias,
                cls,
                pos,
            } => vec![
                (0, Packed(weight, Order::OutMajor)),
                (1, Plain(bias.data_mut())),
                (2, Plain(cls.data_mut())),
                (3, Plain(pos.data_mut())),
            ],
            NodeWeights::Attention {
                w_qkv,
                b_qkv,
                w_out,
                b_out,
            } => vec![
                (0, Packed(&mut w_qkv.b, Order::KxN)),
                (1, Plain(b_qkv.data_mut())),
                (2, Packed(&mut w_out.b, Order::KxN)),
                (3, Plain(b_out.data_mut())),
            ],
            NodeWeights::LinearAttention { w_rkv, w_out } => vec![
                (0, Packed(&mut w_rkv.b, Order::KxN)),
                (1, Packed(&mut w_out.b, Order::KxN)),
            ],
            NodeWeights::Mlp { w1, b1, w2, b2 } => vec![
                (0, Packed(&mut w1.b, Order::KxN)),
                (1, Plain(b1.data_mut())),
                (2, Packed(&mut w2.b, Order::KxN)),
                (3, Plain(b2.data_mut())),
            ],
        }
    }
}

/// A weight tensor whose current bits no longer match the checksum taken at
/// materialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightCorruption {
    /// Graph node owning the corrupt tensor.
    pub node: usize,
    /// Role index of the tensor within the node (enumeration order of
    /// `NodeWeights::buffers`).
    pub role: u64,
}

/// All weights of a graph, generated once and stored in the layouts the
/// batched engine consumes — every matmul weight (linears, attention, MLP,
/// RWKV and the patch embedding) as the GEMM's packed B panels, and (for
/// INT8 executors) pre-quantized weight matrices. Building this once per
/// [`Executor`](crate::Executor) replaces the seed behavior of regenerating
/// every weight tensor from the seed on *every* forward pass.
///
/// The panels are the only copy of a packed weight in memory. Outside the
/// kernel a tensor is seen in its logical order — `k×n` for a linear,
/// out-major for the patch weight — through a transient per-tensor view
/// ([`MaterializedWeights::for_each_buffer`]): checksums, the fingerprint,
/// artifacts and fault injection all read and write that order, and never
/// the panels' zero tail columns.
///
/// Each tensor's FNV-1a checksum is taken at construction; since weights
/// are immutable during normal serving, any later mismatch is silent data
/// corruption by definition.
///
/// `Clone` is what makes generation swaps safe: the swap layer keeps a
/// pristine copy behind an `Arc` while an executor's in-place corruption
/// (fault injection) works on a copy-on-write clone.
#[derive(Clone)]
pub struct MaterializedWeights {
    pub(crate) nodes: Vec<NodeWeights>,
    f32_elements: usize,
    /// `(node << 3 | role, checksum)` per tensor, in enumeration order.
    checksums: Vec<(u64, u64)>,
}

impl std::fmt::Debug for MaterializedWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedWeights")
            .field("nodes", &self.nodes.len())
            .field("f32_elements", &self.f32_elements)
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint()))
            .finish()
    }
}

impl MaterializedWeights {
    /// Generate and lay out every weight of `graph` from `store`.
    /// `int8_linears` additionally caches symmetric INT8 quantizations for
    /// the weights the quantized path consumes (`Linear` and `Mlp`).
    pub fn new(graph: &Graph, store: &WeightStore, int8_linears: bool) -> Self {
        let mut nodes = Vec::with_capacity(graph.nodes().len());
        for node in graph.nodes() {
            let id = node.id;
            let w = match &node.op {
                Op::Conv2d {
                    cin,
                    cout,
                    kernel,
                    bias,
                    ..
                } => {
                    let weight = store.tensor(
                        id,
                        0,
                        &[cout * cin * kernel * kernel],
                        cin * kernel * kernel,
                    );
                    let bias_t = if *bias {
                        store.tensor(id, 1, &[*cout], *cin)
                    } else {
                        Tensor::zeros(&[0])
                    };
                    NodeWeights::Conv {
                        weight,
                        bias: bias_t,
                    }
                }
                Op::BatchNorm { channels } => NodeWeights::BatchNorm {
                    gamma: vec![1.0; *channels],
                    beta: store.tensor(id, 0, &[*channels], *channels),
                    mean: vec![0.0; *channels],
                    var: vec![1.0; *channels],
                },
                Op::LayerNorm { dim } => NodeWeights::LayerNorm {
                    gamma: vec![1.0; *dim],
                    beta: vec![0.0; *dim],
                },
                Op::Linear { cin, cout, bias } => NodeWeights::Linear {
                    w: LinearWeight::new(store.packed(id, 0, *cin, *cout), int8_linears),
                    bias: bias.then(|| store.tensor(id, 1, &[*cout], *cin)),
                },
                Op::PatchEmbed { in_ch, dim, patch } => {
                    let s = match node.out_shape {
                        Shape::Seq { s, .. } => s,
                        sh => panic!("patch-embed output {sh}"),
                    };
                    let k = in_ch * patch * patch;
                    NodeWeights::PatchEmbed {
                        weight: store.packed(id, 0, k, *dim),
                        bias: store.tensor(id, 1, &[*dim], k),
                        cls: store.tensor(id, 2, &[*dim], *dim),
                        pos: store.tensor(id, 3, &[s * dim], *dim),
                    }
                }
                Op::Attention { dim, .. } => {
                    NodeWeights::Attention {
                        // Attention projections stay f32 even in INT8 mode,
                        // matching the seed's precision ablation.
                        w_qkv: LinearWeight::new(store.packed(id, 0, *dim, 3 * dim), false),
                        b_qkv: store.tensor(id, 1, &[3 * dim], *dim),
                        w_out: LinearWeight::new(store.packed(id, 2, *dim, *dim), false),
                        b_out: store.tensor(id, 3, &[*dim], *dim),
                    }
                }
                Op::LinearAttention { dim, .. } => NodeWeights::LinearAttention {
                    w_rkv: LinearWeight::new(store.packed(id, 0, *dim, 3 * dim), false),
                    w_out: LinearWeight::new(store.packed(id, 2, *dim, *dim), false),
                },
                Op::Mlp { dim, hidden } => NodeWeights::Mlp {
                    w1: LinearWeight::new(store.packed(id, 0, *dim, *hidden), int8_linears),
                    b1: store.tensor(id, 1, &[*hidden], *dim),
                    w2: LinearWeight::new(store.packed(id, 2, *hidden, *dim), int8_linears),
                    b2: store.tensor(id, 3, &[*dim], *hidden),
                },
                _ => NodeWeights::None,
            };
            nodes.push(w);
        }
        let f32_elements = nodes
            .iter()
            .flat_map(NodeWeights::buffers)
            .map(|(_, held)| match held {
                Held::Plain(buf) => buf.len(),
                Held::Packed(w, _) => w.k() * w.n(),
            })
            .sum();
        let checksums = Self::compute_checksums(&nodes);
        MaterializedWeights {
            nodes,
            f32_elements,
            checksums,
        }
    }

    /// Total f32 weight elements held (≈ parameter count).
    pub fn f32_elements(&self) -> usize {
        self.f32_elements
    }

    pub(crate) fn of(&self, id: NodeId) -> &NodeWeights {
        &self.nodes[id.0]
    }

    fn compute_checksums(nodes: &[NodeWeights]) -> Vec<(u64, u64)> {
        let mut sums = Vec::new();
        Self::walk(nodes, |id, buf| sums.push((id, checksum_f32(buf))));
        sums
    }

    /// Every tensor of `nodes` in its logical order, tagged with its id.
    fn walk(nodes: &[NodeWeights], mut f: impl FnMut(u64, &[f32])) {
        let mut view = Vec::new();
        for (node, w) in nodes.iter().enumerate() {
            for (role, held) in w.buffers() {
                let id = (node as u64) << 3 | role;
                match held {
                    Held::Plain(buf) => f(id, buf),
                    Held::Packed(w, order) => {
                        order.read(w, &mut view);
                        f(id, &view);
                    }
                }
            }
        }
    }

    /// Re-hash every tensor and compare against the construction-time
    /// checksums; reports the first corrupt tensor found. O(parameters) —
    /// cheap relative to a batch forward, so serving layers can afford to
    /// run it per dispatched batch.
    pub fn verify_integrity(&self) -> Result<(), WeightCorruption> {
        for ((id, expect), actual) in self
            .checksums
            .iter()
            .zip(Self::compute_checksums(&self.nodes))
        {
            debug_assert_eq!(*id, actual.0);
            if *expect != actual.1 {
                return Err(WeightCorruption {
                    node: (*id >> 3) as usize,
                    role: *id & 7,
                });
            }
        }
        Ok(())
    }

    /// Visit every f32 weight tensor mutably in its logical order, tagged
    /// with its stable tensor id (`node << 3 | role`). A packed weight is
    /// handed out as a transient view and packed back over its panels
    /// afterwards. The corruption injector's and the artifact loader's entry
    /// point.
    pub fn for_each_buffer_mut(&mut self, mut f: impl FnMut(u64, &mut [f32])) {
        let mut view = Vec::new();
        for (node, w) in self.nodes.iter_mut().enumerate() {
            for (role, held) in w.buffers_mut() {
                let id = (node as u64) << 3 | role;
                match held {
                    Held::Plain(buf) => f(id, buf),
                    Held::Packed(w, order) => {
                        order.read(w, &mut view);
                        f(id, &mut view);
                        order.write(w, &view);
                    }
                }
            }
        }
    }

    /// Read-only twin of [`MaterializedWeights::for_each_buffer_mut`], same
    /// tensor ids, order and views — the artifact serializer's walk.
    pub fn for_each_buffer(&self, f: impl FnMut(u64, &[f32])) {
        Self::walk(&self.nodes, f);
    }

    /// A single FNV-1a fingerprint over every `(tensor id, checksum)` pair —
    /// the identity of a weight *generation*. Two materializations collide
    /// only if every tensor has identical bits (up to hash collisions).
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.checksums.len() * 16);
        for (id, sum) in &self.checksums {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&sum.to_le_bytes());
        }
        harvest_tensor::integrity::checksum_bytes(&bytes)
    }

    /// Recompute every derived form after the f32 buffers were overwritten
    /// in bulk (an artifact load): cached INT8 quantizations are re-derived
    /// from the new weights' `k×n` views and the construction-time checksums
    /// are re-taken, so [`MaterializedWeights::verify_integrity`] passes
    /// against the *new* bits.
    pub fn rebuild_derived(&mut self) {
        for w in &mut self.nodes {
            let linears: Vec<&mut LinearWeight> = match w {
                NodeWeights::Linear { w, .. } => vec![w],
                NodeWeights::Mlp { w1, w2, .. } => vec![w1, w2],
                _ => Vec::new(),
            };
            for lw in linears {
                if lw.int8.is_some() {
                    lw.int8 = Some(quantize_widened(&Order::KxN.view(&lw.b)));
                }
            }
        }
        self.checksums = Self::compute_checksums(&self.nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use harvest_models::vit_tiny;

    fn small_vit() -> Graph {
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
    fn cached_int8_weights_equal_a_fresh_quantization() {
        // `matmul_into` serves INT8 matmuls from the quantization taken at
        // materialization; it must be what quantizing the cached k×n
        // weight now would give, value for value, widened to f32.
        let g = small_vit();
        let exec = Executor::new_int8(&g, 9);
        let mut checked = 0;
        for nw in &exec.materialized().nodes {
            let linears: Vec<&LinearWeight> = match nw {
                NodeWeights::Linear { w, .. } => vec![w],
                NodeWeights::Mlp { w1, w2, .. } => vec![w1, w2],
                _ => vec![],
            };
            for w in linears {
                let (panel, scale) = w.int8.as_ref().expect("INT8 executor caches every linear");
                let fresh = quantize_symmetric(&Order::KxN.view(&w.b));
                let widened: Vec<f32> = fresh.data.iter().map(|&v| v as f32).collect();
                assert_eq!(panel, &widened);
                assert_eq!(scale.to_bits(), fresh.scale.to_bits());
                checked += 1;
            }
        }
        // Three blocks of two MLP linears, plus the classifier head.
        assert_eq!(checked, 7);
    }

    #[test]
    fn packed_panels_are_the_only_copy_of_a_matmul_weight() {
        // Every f32 a materialized ViT stores is a logical weight element
        // (`f32_elements`) or a zero tail column of a packed weight whose
        // `n` is not a multiple of the 32-column panel: no `k×n` copy beside
        // the panels. (A packed weight's allocation also carries up to 15
        // floats of slack so that its panels start on a cache line; those
        // are not part of any tensor and are not counted.)
        use harvest_models::{vit, VitConfig};
        let vit96 = vit(
            "vit96",
            &VitConfig {
                dim: 192,
                depth: 3,
                heads: 3,
                patch: 16,
                img: 96,
                mlp_ratio: 4,
                classes: 16,
            },
        );
        for g in [vit_tiny(16), vit96] {
            let exec = Executor::new(&g, 5);
            let w = exec.materialized();
            let stored: usize = w
                .nodes
                .iter()
                .flat_map(NodeWeights::buffers)
                .map(|(_, held)| match held {
                    Held::Plain(buf) => buf.len(),
                    Held::Packed(b, _) => b.panels().len(),
                })
                .sum();
            let int8: usize = w
                .nodes
                .iter()
                .map(|nw| match nw {
                    NodeWeights::Linear { w, .. } => w.int8.iter().count(),
                    NodeWeights::Mlp { w1, w2, .. } => w1.int8.iter().chain(&w2.int8).count(),
                    _ => 0,
                })
                .sum();
            assert_eq!(int8, 0, "{}: an f32 executor caches no INT8 copy", g.name());
            // The `(k, n)` of every matmul weight, from the graph alone.
            let shapes = g.nodes().iter().flat_map(|node| match node.op {
                Op::Linear { cin, cout, .. } => vec![(cin, cout)],
                Op::PatchEmbed { in_ch, dim, patch } => vec![(in_ch * patch * patch, dim)],
                Op::Attention { dim, .. } | Op::LinearAttention { dim, .. } => {
                    vec![(dim, 3 * dim), (dim, dim)]
                }
                Op::Mlp { dim, hidden } => vec![(dim, hidden), (hidden, dim)],
                _ => vec![],
            });
            let tails: usize = shapes.map(|(k, n)| (n.next_multiple_of(32) - n) * k).sum();
            // Only the 16-class head (k = 192) is not a whole number of panels.
            assert_eq!(tails, 16 * 192, "{}", g.name());
            assert_eq!(stored, w.f32_elements() + tails, "{}", g.name());
        }
    }

    #[test]
    fn materialized_weights_cover_parameters() {
        let g = small_vit();
        let exec = Executor::new(&g, 3);
        // The materialized store holds at least the graph's parameter
        // count (analytics params plus non-counted constants like
        // positional embeddings).
        let params = g.stats().params as usize;
        assert!(
            exec.materialized().f32_elements() >= params,
            "{} < {}",
            exec.materialized().f32_elements(),
            params
        );
    }
}
