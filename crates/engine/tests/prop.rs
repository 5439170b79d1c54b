//! Property-based tests for the engine compiler, planner, and the batched
//! executor (the seed reference path has its own suite, `reference.rs`).

use harvest_engine::{compile, plan_activations, Executor};
use harvest_models::{vit, Precision, VitConfig};
use harvest_simkit::fault::FaultPlan;
use harvest_tensor::Tensor;
use proptest::prelude::*;

fn vit_config() -> impl Strategy<Value = VitConfig> {
    (
        1usize..=4,
        1usize..=4,
        prop_oneof![Just(1usize), Just(2), Just(4)],
        1usize..=3,
    )
        .prop_map(|(dim_x32, depth, heads, patch_exp)| {
            let dim = dim_x32 * 32 * heads;
            let patch = 1 << patch_exp;
            VitConfig {
                dim,
                depth,
                heads,
                patch,
                img: patch * 4,
                mlp_ratio: 4,
                classes: 7,
            }
        })
}

/// Smaller configs than [`vit_config`] — these run real forwards.
fn exec_vit_config() -> impl Strategy<Value = VitConfig> {
    (
        1usize..=2,
        1usize..=2,
        prop_oneof![Just(1usize), Just(2)],
        prop_oneof![Just(2usize), Just(4)],
    )
        .prop_map(|(dim_x32, depth, heads, patch)| VitConfig {
            dim: dim_x32 * 32 * heads,
            depth,
            heads,
            patch,
            img: patch * 4,
            mlp_ratio: 4,
            classes: 5,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_node_scheduled_exactly_once(cfg in vit_config()) {
        let g = vit("prop", &cfg);
        let plan = compile(&g);
        let mut seen = vec![0u32; g.nodes().len()];
        for step in plan.steps() {
            for n in &step.nodes {
                seen[n.0] += 1;
            }
        }
        prop_assert_eq!(seen[0], 0, "input is never launched");
        for (i, &c) in seen.iter().enumerate().skip(1) {
            prop_assert_eq!(c, 1, "node {} scheduled {} times", i, c);
        }
    }

    #[test]
    fn plan_macs_equal_attention_inclusive_analytics(cfg in vit_config()) {
        let g = vit("prop", &cfg);
        let plan = compile(&g);
        let stats = g.stats();
        let err = (plan.total_macs() - stats.macs_with_attention).abs();
        prop_assert!(err < 1.0, "{} vs {}", plan.total_macs(), stats.macs_with_attention);
    }

    #[test]
    fn fusion_never_increases_launches(cfg in vit_config()) {
        let g = vit("prop", &cfg);
        let plan = compile(&g);
        prop_assert!(plan.launch_count() + plan.nodes_fused_away() <= g.nodes().len());
        prop_assert!(plan.launch_count() >= 1);
    }

    #[test]
    fn planner_peak_is_bounded_and_nontrivial(cfg in vit_config()) {
        let g = vit("prop", &cfg);
        let plan = plan_activations(&g, Precision::Fp16);
        // Peak can never exceed the no-reuse total...
        prop_assert!(plan.peak_bytes <= plan.total_bytes);
        // ...and must hold at least the largest single activation.
        let largest = g
            .nodes()
            .iter()
            .map(|n| n.out_shape.elements() as u64 * 2)
            .max()
            .unwrap();
        prop_assert!(plan.peak_bytes >= largest);
        prop_assert_eq!(plan.buffers, g.nodes().len());
    }

    #[test]
    fn int8_batched_equals_int8_single_image(
        (cfg, b, seed) in (exec_vit_config(), 2usize..=3, 0u64..1000)
    ) {
        // Per-image activation quantization makes the INT8 batched path
        // exactly equal to running images one at a time.
        let g = vit("prop-int8", &cfg);
        let exec = Executor::new_int8(&g, 2000 + seed);
        let side = cfg.img;
        let inputs: Vec<Tensor> = (0..b)
            .map(|i| Tensor::random(&[3, side, side], seed * 17 + i as u64, 1.0))
            .collect();
        let batched = exec.forward_batch(&inputs);
        for (img, out) in inputs.iter().zip(&batched) {
            let single = exec.forward(img);
            prop_assert_eq!(out.data(), single.data());
        }
    }

    #[test]
    fn deeper_models_never_raise_planned_peak(cfg in vit_config()) {
        // Liveness-planned peak is per-block for a chain-of-blocks model:
        // adding depth must not change it (only totals grow).
        prop_assume!(cfg.depth >= 2);
        let shallow = plan_activations(&vit("s", &VitConfig { depth: 1, ..cfg }), Precision::Fp16);
        let deep = plan_activations(&vit("d", &cfg), Precision::Fp16);
        prop_assert_eq!(deep.peak_bytes, shallow.peak_bytes);
        prop_assert!(deep.total_bytes > shallow.total_bytes);
    }
}

// --- thread-count determinism ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn forward_batch_is_bit_identical_across_thread_counts(
        (cfg, b, seed) in (exec_vit_config(), 2usize..=4, 0u64..1000)
    ) {
        // The pool fans out GEMM row blocks, per-image conv, and
        // per-(image, head) attention; whatever the width, the logits must
        // be byte-equal to the sequential run.
        let g = vit("prop-threads", &cfg);
        let exec = Executor::new(&g, 3000 + seed);
        let side = cfg.img;
        let inputs: Vec<Tensor> = (0..b)
            .map(|i| Tensor::random(&[3, side, side], seed * 13 + i as u64, 1.0))
            .collect();
        let sequential = harvest_threads::with_threads(1, || exec.forward_batch(&inputs));
        for threads in [2usize, 4] {
            let pooled = harvest_threads::with_threads(threads, || exec.forward_batch(&inputs));
            for (x, y) in sequential.iter().zip(&pooled) {
                prop_assert_eq!(x.data(), y.data(), "threads={}", threads);
            }
        }
    }

    #[test]
    fn fault_injection_lands_identical_flips_at_any_thread_count(
        (cfg, seed, round) in (exec_vit_config(), 0u64..500, 0u64..8)
    ) {
        // The integrity layer's replay guarantee: a fault plan keyed by
        // round must flip the same weight bits — and produce the same
        // corrupted logits — whether the engine runs sequentially or on a
        // wide pool.
        let g = vit("prop-faults", &cfg);
        let plan = FaultPlan::new(4000 + seed).with_weight_bit_flips(1e-3, false);
        let input = Tensor::random(&[3, cfg.img, cfg.img], seed + 7, 1.0);
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                let mut exec = Executor::new(&g, 5000 + seed);
                let flips = exec.inject_weight_flips(&plan, round);
                let out = exec.forward_batch(std::slice::from_ref(&input));
                (flips, out)
            })
        };
        let (flips_seq, out_seq) = run(1);
        for threads in [2usize, 4] {
            let (flips_par, out_par) = run(threads);
            prop_assert_eq!(flips_seq, flips_par, "flip count at threads={}", threads);
            for (x, y) in out_seq.iter().zip(&out_par) {
                prop_assert_eq!(x.data(), y.data(), "corrupted logits at threads={}", threads);
            }
        }
    }
}
