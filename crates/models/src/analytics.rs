//! Model analytics: parameters, MACs, compute breakdown, memory footprints.
//!
//! Two accounting conventions coexist deliberately:
//!
//! * **Headline MACs** ([`ModelStats::macs`]) are counted *ptflops-style*:
//!   convolution and linear-layer multiply-accumulates only. This is the
//!   convention under which the paper's Table 3 numbers (1.37 / 5.47 /
//!   16.86 / 4.09 G"FLOPs") reproduce exactly; the attention
//!   `softmax(QKᵀ)·V` matmuls are *not* hooked by that tool and are
//!   excluded.
//! * **The §4.0.2 breakdown** classifies compute the way the paper does:
//!   every `nn.Linear` (QKV, attention output projection, transformer MLP,
//!   classifier head) counts as "MLP layers", and only the attention
//!   score/value matmuls count as "attention layers". Under this convention
//!   ViT-Tiny's split is 12d/(12d+2s) = 81.7 % MLP / 18.2 % attention —
//!   precisely the printed 81.73 % / 18.23 %.

use crate::ir::{Graph, Op, Shape};

/// Numeric precision for memory/FLOPS accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit float.
    Fp32,
    /// 16-bit float.
    Fp16,
    /// bfloat16.
    Bf16,
    /// 8-bit integer.
    Int8,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 | Precision::Bf16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Fp32 => "FP32",
            Precision::Fp16 => "FP16",
            Precision::Bf16 => "BF16",
            Precision::Int8 => "INT8",
        }
    }
}

/// Compute-breakdown buckets in the paper's classification.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ComputeBreakdown {
    /// Convolution MACs (incl. patch embedding).
    pub conv_macs: f64,
    /// Linear-layer MACs: QKV + attention projection + MLP + heads.
    pub linear_macs: f64,
    /// Attention score/value matmul MACs (2·s²·d per attention op).
    pub attn_matmul_macs: f64,
    /// Elementwise op count (norms, activations, pools, adds, softmax) —
    /// small, but it is why ResNet50's conv share reads 99.5 % not 99.95 %.
    pub elementwise_ops: f64,
}

impl ComputeBreakdown {
    /// Total MACs across the matrix-math buckets. Shares are computed
    /// against this (the paper's profiler reports MAC shares; elementwise
    /// ops are kept separately as a diagnostic).
    pub fn total_macs(&self) -> f64 {
        self.conv_macs + self.linear_macs + self.attn_matmul_macs
    }

    /// Everything, elementwise included.
    pub fn total(&self) -> f64 {
        self.total_macs() + self.elementwise_ops
    }

    /// "MLP layers" share, paper convention (all linears / MAC total).
    pub fn mlp_share(&self) -> f64 {
        self.linear_macs / self.total_macs()
    }

    /// "Attention layers" share, paper convention (matmuls / MAC total).
    pub fn attention_share(&self) -> f64 {
        self.attn_matmul_macs / self.total_macs()
    }

    /// Convolution share of the MAC total.
    pub fn conv_share(&self) -> f64 {
        self.conv_macs / self.total_macs()
    }
}

/// Full per-model statistics.
#[derive(Clone, Debug)]
pub struct ModelStats {
    /// Trainable parameter count.
    pub params: u64,
    /// Headline ptflops-style MACs per image (Table 3 "GFLOPs/Image").
    pub macs: f64,
    /// MACs including the attention matmuls (the engine's compute model
    /// uses this — the hardware really does execute them).
    pub macs_with_attention: f64,
    /// Per-class compute breakdown.
    pub breakdown: ComputeBreakdown,
}

impl ModelStats {
    /// Weight bytes at a precision.
    pub fn weight_bytes(&self, p: Precision) -> u64 {
        self.params * p.bytes() as u64
    }

    /// MACs in units of 10⁹ (the table's GFLOPs/Image column).
    pub fn gmacs(&self) -> f64 {
        self.macs / 1e9
    }

    /// Parameters in units of 10⁶.
    pub fn mparams(&self) -> f64 {
        self.params as f64 / 1e6
    }
}

fn seq_of(shape: Shape) -> (usize, usize) {
    match shape {
        Shape::Seq { s, d } => (s, d),
        other => panic!("expected sequence shape, got {other}"),
    }
}

/// Parameters contributed by one node.
fn node_params(graph: &Graph, node_idx: usize) -> u64 {
    let node = &graph.nodes()[node_idx];
    match &node.op {
        Op::Conv2d {
            cin,
            cout,
            kernel,
            bias,
            ..
        } => (cout * cin * kernel * kernel + if *bias { *cout } else { 0 }) as u64,
        Op::BatchNorm { channels } => (2 * channels) as u64, // gamma + beta
        Op::Linear { cin, cout, bias } => (cin * cout + if *bias { *cout } else { 0 }) as u64,
        Op::LayerNorm { dim } => (2 * dim) as u64,
        Op::PatchEmbed { in_ch, dim, patch } => {
            let (s, d) = seq_of(node.out_shape);
            debug_assert_eq!(d, *dim);
            // projection + proj bias + positional embedding (s·d) + CLS (d)
            (in_ch * patch * patch * dim + dim + s * d + d) as u64
        }
        Op::Attention { dim, .. } => {
            // qkv (3d²+3d) + output projection (d²+d)
            (4 * dim * dim + 4 * dim) as u64
        }
        Op::LinearAttention { dim, .. } => {
            // rkv projections + output projection + per-channel decay/gate.
            (4 * dim * dim + 4 * dim + 2 * dim) as u64
        }
        Op::Mlp { dim, hidden } => (dim * hidden + hidden + hidden * dim + dim) as u64,
        _ => 0,
    }
}

/// Per-image compute contributed by one node, split by bucket.
fn node_compute(graph: &Graph, node_idx: usize, acc: &mut ComputeBreakdown) {
    let node = &graph.nodes()[node_idx];
    let out_elems = node.out_shape.elements() as f64;
    match &node.op {
        Op::Conv2d {
            cin, cout, kernel, ..
        } => {
            if let Shape::Chw { h, w, .. } = node.out_shape {
                acc.conv_macs += (cout * cin * kernel * kernel * h * w) as f64;
            }
        }
        Op::PatchEmbed { in_ch, dim, patch } => {
            let (s, _) = seq_of(node.out_shape);
            let n_patches = s - 1;
            acc.conv_macs += (in_ch * patch * patch * dim * n_patches) as f64;
        }
        Op::Linear { cin, cout, .. } => {
            let tokens = match node.out_shape {
                Shape::Seq { s, .. } => s,
                _ => 1,
            };
            acc.linear_macs += (cin * cout * tokens) as f64;
        }
        Op::Attention { dim, .. } => {
            let (s, d) = seq_of(node.out_shape);
            debug_assert_eq!(d, *dim);
            // Projections are nn.Linear modules -> linear bucket.
            acc.linear_macs += (4 * dim * dim * s) as f64;
            // QKᵀ and attn·V: s² · d MACs each.
            acc.attn_matmul_macs += 2.0 * (s * s * d) as f64;
            // softmax over s×s scores
            acc.elementwise_ops += 5.0 * (s * s) as f64;
        }
        Op::LinearAttention { dim, heads } => {
            let (s, d) = seq_of(node.out_shape);
            debug_assert_eq!(d, *dim);
            let head_dim = dim / heads;
            // Projections, as in softmax attention.
            acc.linear_macs += (4 * dim * dim * s) as f64;
            // State update + readout: k⊗v accumulation and S·q per token —
            // 2 · s · d · head_dim MACs total: *linear* in s.
            acc.attn_matmul_macs += 2.0 * (s * d * head_dim) as f64;
            // decay/gate elementwise work on the state (one decay multiply
            // per state cell per token) plus token-wise gating.
            acc.elementwise_ops += (s * d * head_dim) as f64 + 4.0 * (s * d) as f64;
        }
        Op::Mlp { dim, hidden } => {
            let (s, _) = seq_of(node.out_shape);
            acc.linear_macs += (2 * dim * hidden * s) as f64;
            acc.elementwise_ops += 8.0 * (hidden * s) as f64; // GELU on hidden
        }
        Op::BatchNorm { .. } => acc.elementwise_ops += 2.0 * out_elems,
        Op::LayerNorm { .. } => acc.elementwise_ops += 5.0 * out_elems,
        Op::Relu | Op::Add => acc.elementwise_ops += out_elems,
        Op::Gelu => acc.elementwise_ops += 8.0 * out_elems,
        Op::Softmax => acc.elementwise_ops += 5.0 * out_elems,
        Op::MaxPool { kernel, .. } => acc.elementwise_ops += (kernel * kernel) as f64 * out_elems,
        Op::GlobalAvgPool => {
            // one add per input element
            if let Some(&input) = node.inputs.first() {
                acc.elementwise_ops += graph.node(input).out_shape.elements() as f64;
            }
        }
        Op::Input { .. } | Op::ClsSelect => {}
    }
}

/// Compute full statistics for a graph.
pub fn stats(graph: &Graph) -> ModelStats {
    let mut params = 0u64;
    let mut breakdown = ComputeBreakdown::default();
    for idx in 0..graph.nodes().len() {
        params += node_params(graph, idx);
        node_compute(graph, idx, &mut breakdown);
    }
    let macs = breakdown.conv_macs + breakdown.linear_macs;
    ModelStats {
        params,
        macs,
        macs_with_attention: macs + breakdown.attn_matmul_macs,
        breakdown,
    }
}

impl Graph {
    /// Convenience: full statistics for this graph.
    pub fn stats(&self) -> ModelStats {
        stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{resnet50, vit_base, vit_small, vit_tiny};

    fn pct_err(actual: f64, expected: f64) -> f64 {
        ((actual - expected) / expected).abs() * 100.0
    }

    #[test]
    fn table3_parameter_counts() {
        // Paper: 5.39M, 21.40M, 85.80M, 25.56M.
        let tiny = vit_tiny(39).stats();
        assert!(
            pct_err(tiny.mparams(), 5.39) < 1.0,
            "tiny {:.4}M",
            tiny.mparams()
        );
        let small = vit_small(39).stats();
        assert!(
            pct_err(small.mparams(), 21.40) < 0.5,
            "small {:.4}M",
            small.mparams()
        );
        let base = vit_base(39).stats();
        assert!(
            pct_err(base.mparams(), 85.80) < 0.5,
            "base {:.4}M",
            base.mparams()
        );
        let rn = resnet50(1000).stats();
        assert!(
            pct_err(rn.mparams(), 25.56) < 0.25,
            "resnet {:.4}M",
            rn.mparams()
        );
    }

    #[test]
    fn resnet50_params_match_torchvision_exactly() {
        // torchvision resnet50(num_classes=1000): 25,557,032 parameters.
        assert_eq!(resnet50(1000).stats().params, 25_557_032);
    }

    #[test]
    fn table3_gmacs() {
        // Paper: 1.37, 5.47, 16.86, 4.09 GFLOPs/image (ptflops MACs).
        let tiny = vit_tiny(39).stats();
        assert!(
            pct_err(tiny.gmacs(), 1.37) < 1.0,
            "tiny {:.4}G",
            tiny.gmacs()
        );
        let small = vit_small(39).stats();
        assert!(
            pct_err(small.gmacs(), 5.47) < 1.0,
            "small {:.4}G",
            small.gmacs()
        );
        let base = vit_base(39).stats();
        assert!(
            pct_err(base.gmacs(), 16.86) < 0.5,
            "base {:.4}G",
            base.gmacs()
        );
        let rn = resnet50(1000).stats();
        assert!(pct_err(rn.gmacs(), 4.09) < 1.0, "resnet {:.4}G", rn.gmacs());
    }

    #[test]
    fn vit_tiny_breakdown_matches_section_4_0_2() {
        // Paper: MLP layers 81.73%, attention layers 18.23%.
        let b = vit_tiny(39).stats().breakdown;
        let mlp = b.mlp_share() * 100.0;
        let attn = b.attention_share() * 100.0;
        assert!((mlp - 81.73).abs() < 1.0, "mlp share {mlp:.2}%");
        assert!((attn - 18.23).abs() < 1.0, "attention share {attn:.2}%");
    }

    #[test]
    fn resnet50_is_conv_dominated() {
        // Paper: convolution ~99.5% of compute.
        let b = resnet50(1000).stats().breakdown;
        let conv = b.conv_share() * 100.0;
        assert!(conv > 98.5 && conv < 100.0, "conv share {conv:.2}%");
        assert_eq!(b.attn_matmul_macs, 0.0);
    }

    #[test]
    fn vit_small_demands_more_compute_than_resnet50_despite_fewer_params() {
        // The paper's §4.1 comparison (5.47 vs 4.09 GFLOPs; 21.4M vs 25.6M).
        let small = vit_small(39).stats();
        let rn = resnet50(1000).stats();
        assert!(small.params < rn.params);
        assert!(small.macs > rn.macs);
    }

    #[test]
    fn attention_inclusive_macs_exceed_headline() {
        let s = vit_base(39).stats();
        assert!(s.macs_with_attention > s.macs);
        // ViT-B/16 @224: matmuls add ~0.7 GMACs.
        let extra = (s.macs_with_attention - s.macs) / 1e9;
        assert!(extra > 0.5 && extra < 1.0, "extra {extra:.3}G");
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Bf16.bytes(), 2);
        assert_eq!(Precision::Int8.bytes(), 1);
        let s = vit_tiny(39).stats();
        assert_eq!(s.weight_bytes(Precision::Fp16), s.params * 2);
    }
}
