//! Activation memory planning.
//!
//! Classic engine-style planning: compute each IR value's live interval
//! (definition → last use) over the topological order, then allocate
//! intervals through the real free-list allocator in `harvest-hw`,
//! releasing buffers the moment their last consumer has run. The resulting
//! high-water mark is the per-image activation peak.
//!
//! No build or serving path calls this planner. The engine's OOM wall is
//! `harvest_perf::EngineMemoryModel::fits`, a per-image working set
//! calibrated to the paper's walls; the liveness peak here is the reference
//! that model can be compared against. The planner's pool is sized to the
//! no-reuse total, so none of its allocations can fail.

use harvest_hw::MemoryPool;
use harvest_models::{Graph, NodeId, Op, Precision};

/// Result of planning one graph at a precision.
#[derive(Clone, Debug)]
pub struct ActivationPlan {
    /// Peak live activation bytes per image.
    pub peak_bytes: u64,
    /// Sum of all activation bytes (no reuse) — the naive upper bound.
    pub total_bytes: u64,
    /// Number of distinct buffers allocated.
    pub buffers: usize,
}

/// Plan activation memory for `graph` at `precision`.
pub fn plan_activations(graph: &Graph, precision: Precision) -> ActivationPlan {
    let nodes = graph.nodes();
    let n = nodes.len();
    // Last use of each node's output (by topological index).
    let mut last_use = vec![0usize; n];
    for (idx, node) in nodes.iter().enumerate() {
        for &input in &node.inputs {
            last_use[input.0] = last_use[input.0].max(idx);
        }
    }
    last_use[graph.output().0] = n; // output lives past the end

    // Capacity: the no-reuse total — planning can only do better.
    let elem = precision.bytes() as u64;
    let total_bytes: u64 = nodes
        .iter()
        .map(|nd| nd.out_shape.elements() as u64 * elem)
        .sum();
    let mut pool = MemoryPool::new(total_bytes.max(1));
    let mut live: Vec<Option<harvest_hw::Allocation>> = vec![None; n];
    let mut buffers = 0usize;

    for (idx, node) in nodes.iter().enumerate() {
        // The input node's buffer is caller-provided; skip allocation but
        // keep liveness semantics (it is charged as a buffer).
        let bytes = node.out_shape.elements() as u64 * elem;
        let alloc = pool
            .alloc(bytes)
            .expect("planner pool sized to the no-reuse total; cannot fail");
        live[idx] = Some(alloc);
        buffers += 1;
        // In-place-able ops (activations, norms) could reuse their input
        // buffer; we keep them distinct for clarity — the conservatism is
        // small and documented.
        let _ = &node.op;
        // Release every buffer whose last use is this step.
        for (j, slot) in live.iter_mut().enumerate().take(idx + 1) {
            if last_use[j] == idx && j != idx {
                if let Some(a) = slot.take() {
                    pool.release(a);
                }
            }
        }
        // A node with no consumers (and not the output) dies immediately.
        if last_use[idx] == 0
            && !matches!(node.op, Op::Input { .. })
            && NodeId(idx) != graph.output()
        {
            if let Some(a) = live[idx].take() {
                pool.release(a);
            }
        }
    }

    ActivationPlan {
        peak_bytes: pool.peak(),
        total_bytes,
        buffers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_models::{resnet50, vit_base, vit_tiny, GraphBuilder, Shape};

    #[test]
    fn chain_graph_peak_is_two_buffers() {
        // input -> relu -> relu -> relu: at any step only producer+consumer
        // buffers are live (plus alignment rounding).
        let (mut b, input) = GraphBuilder::new("chain", Shape::Flat { d: 1000 });
        use harvest_models::Op;
        let r1 = b.push("r1", Op::Relu, &[input]);
        let r2 = b.push("r2", Op::Relu, &[r1]);
        let r3 = b.push("r3", Op::Relu, &[r2]);
        let g = b.finish(r3);
        let plan = plan_activations(&g, Precision::Fp32);
        let one = 1000 * 4;
        // 4 buffers exist but peak is ~2 (alignment pads 4000 -> 4096).
        assert_eq!(plan.buffers, 4);
        assert!(plan.peak_bytes <= 2 * 4096, "peak {}", plan.peak_bytes);
        assert!(plan.peak_bytes >= 2 * one as u64);
        let reuse = plan.total_bytes as f64 / plan.peak_bytes as f64;
        assert!(reuse > 1.9, "reuse {reuse}");
    }

    #[test]
    fn residual_keeps_skip_alive() {
        // input -> a -> b -> add(input_branch, b): the branch point must
        // stay live across the body.
        let (mut b, input) = GraphBuilder::new("res", Shape::Seq { s: 10, d: 100 });
        use harvest_models::Op;
        let ln = b.push("ln", Op::LayerNorm { dim: 100 }, &[input]);
        let mlp = b.push(
            "mlp",
            Op::Mlp {
                dim: 100,
                hidden: 400,
            },
            &[ln],
        );
        let add = b.push("add", Op::Add, &[input, mlp]);
        let g = b.finish(add);
        let plan = plan_activations(&g, Precision::Fp32);
        // At the mlp step: input (skip) + ln + mlp live = 3 buffers of 4000B.
        assert!(plan.peak_bytes >= 3 * 4000, "peak {}", plan.peak_bytes);
    }

    #[test]
    fn resnet_peak_is_far_below_total() {
        let g = resnet50(1000);
        let plan = plan_activations(&g, Precision::Fp16);
        let reuse = plan.total_bytes as f64 / plan.peak_bytes as f64;
        assert!(
            reuse > 5.0,
            "liveness planning should reuse heavily: {reuse}"
        );
        // Peak is a small multiple of the largest single activation
        // (64×112×112 fp16 ≈ 1.6 MB).
        let largest = 64 * 112 * 112 * 2;
        assert!(
            plan.peak_bytes < 6 * largest as u64,
            "peak {}",
            plan.peak_bytes
        );
        assert!(plan.peak_bytes >= largest as u64);
    }

    #[test]
    fn vit_peaks_scale_with_model_width() {
        let tiny = plan_activations(&vit_tiny(39), Precision::Fp16);
        let base = plan_activations(&vit_base(39), Precision::Fp16);
        assert!(base.peak_bytes > 2 * tiny.peak_bytes);
    }

    #[test]
    fn precision_halves_the_plan() {
        let g = vit_tiny(39);
        let p32 = plan_activations(&g, Precision::Fp32);
        let p16 = plan_activations(&g, Precision::Fp16);
        let ratio = p32.peak_bytes as f64 / p16.peak_bytes as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn totals_are_consistent() {
        let g = vit_tiny(39);
        let plan = plan_activations(&g, Precision::Fp16);
        let expected_total: u64 = g
            .nodes()
            .iter()
            .map(|n| n.out_shape.elements() as u64 * 2)
            .sum();
        assert_eq!(plan.total_bytes, expected_total);
        assert!(plan.peak_bytes <= plan.total_bytes);
        assert_eq!(plan.buffers, g.nodes().len());
    }
}
