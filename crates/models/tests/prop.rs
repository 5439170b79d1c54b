//! Property-based tests for the model IR and analytics.

use harvest_models::{vit, VitConfig};
use proptest::prelude::*;

fn vit_config() -> impl Strategy<Value = VitConfig> {
    // dim divisible by heads; img divisible by patch.
    (
        1usize..=8,
        1usize..=6,
        prop_oneof![Just(1usize), Just(2), Just(4)],
        1usize..=4,
        2usize..=200,
    )
        .prop_map(|(dim_per_head_x32, depth, heads, patch_exp, classes)| {
            let dim = dim_per_head_x32 * 32 * heads;
            let patch = 1 << patch_exp; // 2..16
            let img = patch * 8; // 64 patches + CLS
            VitConfig {
                dim,
                depth,
                heads,
                patch,
                img,
                mlp_ratio: 4,
                classes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vit_params_match_closed_form(cfg in vit_config()) {
        let g = vit("prop", &cfg);
        let stats = g.stats();
        let d = cfg.dim as u64;
        let seq = (8u64 * 8) + 1;
        let per_block = 12 * d * d + 13 * d; // qkv+proj+mlp (+biases) + 2 LN
        let embed = 3 * (cfg.patch * cfg.patch) as u64 * d + d // projection + bias
            + seq * d // positional
            + d; // CLS
        let head = d * cfg.classes as u64 + cfg.classes as u64;
        let expected = cfg.depth as u64 * per_block + embed + 2 * d + head;
        prop_assert_eq!(stats.params, expected);
    }

    #[test]
    fn vit_macs_match_closed_form(cfg in vit_config()) {
        let g = vit("prop", &cfg);
        let stats = g.stats();
        let d = cfg.dim as f64;
        let seq = 65.0;
        let blocks = cfg.depth as f64 * seq * 12.0 * d * d;
        let embed = 3.0 * (cfg.patch * cfg.patch) as f64 * d * 64.0;
        let head = d * cfg.classes as f64;
        let expected = blocks + embed + head;
        prop_assert!((stats.macs - expected).abs() < expected * 1e-12 + 1.0);
        // Attention-inclusive count adds 2·s²·d per block.
        let attn = cfg.depth as f64 * 2.0 * seq * seq * d;
        prop_assert!((stats.macs_with_attention - (expected + attn)).abs() < 1.0);
    }

    #[test]
    fn breakdown_shares_sum_to_one(cfg in vit_config()) {
        let b = vit("prop", &cfg).stats().breakdown;
        let sum = b.mlp_share() + b.attention_share() + b.conv_share();
        prop_assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        prop_assert!(b.mlp_share() > 0.0 && b.attention_share() > 0.0);
    }

    #[test]
    fn deeper_vits_cost_more(cfg in vit_config()) {
        prop_assume!(cfg.depth >= 2);
        let shallow = vit("s", &VitConfig { depth: cfg.depth - 1, ..cfg });
        let deep = vit("d", &cfg);
        prop_assert!(deep.stats().params > shallow.stats().params);
        prop_assert!(deep.stats().macs > shallow.stats().macs);
    }
}
